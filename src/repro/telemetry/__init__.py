"""Cycle-accurate telemetry: tracing, stall attribution, bottleneck analysis.

The observability layer over the hardware simulator (see the
"Observability" sections of README.md and DESIGN.md):

* :mod:`repro.telemetry.events` — the sink protocol, the zero-overhead
  :data:`NULL_SINK` default, and the recording :class:`MemoryTraceSink`;
* :mod:`repro.telemetry.chrome_trace` — chrome://tracing JSON exporter;
* :mod:`repro.telemetry.vcd` — VCD waveform exporter;
* :mod:`repro.telemetry.bottleneck` — stall breakdowns, critical-stage
  identification and FIFO-depth / replication recommendations.
"""

from .bottleneck import (
    BottleneckReport,
    FifoDiagnosis,
    WorkerBreakdown,
    analyze,
)
from .chrome_trace import to_chrome_trace
from .events import (
    ALL_CATEGORIES,
    CATEGORY_CODES,
    CacheAccess,
    CycleCategory,
    MemoryTraceSink,
    NULL_SINK,
    NullSink,
    OccupancySample,
    Span,
    StateChange,
    TraceSink,
)
from .vcd import dump_vcd, write_vcd

__all__ = [
    "CycleCategory", "ALL_CATEGORIES", "CATEGORY_CODES",
    "TraceSink", "NullSink", "NULL_SINK", "MemoryTraceSink",
    "Span", "StateChange", "OccupancySample", "CacheAccess",
    "to_chrome_trace",
    "write_vcd", "dump_vcd",
    "analyze",
    "BottleneckReport", "WorkerBreakdown", "FifoDiagnosis",
]
