"""IR interpretation: memory image, generator interpreter, profiler."""

from .interpreter import (
    BROADCAST_INDEX,
    MALLOC_NAMES,
    ChannelIO,
    Interpreter,
    malloc_site_table,
    reachable_ir,
)
from .memory import HEAP_BASE, Allocation, Memory, round_f32, to_unsigned, wrap_int
from .profiler import Profile, profile_call

__all__ = [
    "Interpreter", "ChannelIO", "BROADCAST_INDEX",
    "MALLOC_NAMES", "malloc_site_table", "reachable_ir",
    "Memory", "Allocation", "HEAP_BASE", "wrap_int", "to_unsigned", "round_f32",
    "Profile", "profile_call",
]
