"""Cycle-accurate hardware substrate: workers, FIFOs, cache, MIPS core."""

from ..telemetry.events import MemoryTraceSink, NULL_SINK, NullSink, TraceSink
from .cache import CacheStats, DirectMappedCache
from .engine import EventScheduler
from .fifo import FifoBuffer, FifoStats
from .mips_core import MipsResult, run_on_mips
from .specialize import SpecializedProgram, SpecializedWorker, specialized_for
from .system import DEFAULT_ENGINE, ENGINES, AcceleratorSystem, SimReport
from .worker import HwWorker, WorkerStats

__all__ = [
    "DirectMappedCache", "CacheStats",
    "FifoBuffer", "FifoStats",
    "AcceleratorSystem", "SimReport", "ENGINES", "DEFAULT_ENGINE",
    "EventScheduler",
    "HwWorker", "WorkerStats",
    "SpecializedProgram", "SpecializedWorker", "specialized_for",
    "run_on_mips", "MipsResult",
    "TraceSink", "NullSink", "NULL_SINK", "MemoryTraceSink",
]
