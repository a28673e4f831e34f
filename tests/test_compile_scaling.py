"""Compile time is linear in program size, measured through the job contract.

A valid ``compile`` job whose top-k loop body carries 1x, 4x and 16x extra
straight-line statements may take at most 1.5x linear time.  Every table
the compiler keeps across IR edits (use lists, the blocks erased
instructions leave, the SCC order, the body clone's operand map) is
updated in time proportional to what the edit touches, never rebuilt.
"""

from __future__ import annotations

import gc
import time

from repro.kernels import KERNELS_BY_NAME
from repro.service.contracts import JobRequest
from repro.service.jobs import execute

BASE = 250
ANCHOR = "        s = s & 0x3fffffff;"


def _source(statements: int, rep: int) -> str:
    extra = "".join(
        f"        s = s ^ (s >> {1 + i % 13});\n" for i in range(statements)
    )
    source = KERNELS_BY_NAME["top-k"].source.replace(ANCHOR, extra + ANCHOR, 1)
    assert source.count(ANCHOR) == 1 and extra in source
    # A distinct trailing comment per run misses the pipeline memo, so
    # every timed call compiles.
    return source + f"\n/* {statements} statements, run {rep} */\n"


def _compile_seconds(statements: int) -> float:
    """The fastest of three compile jobs."""
    best = float("inf")
    for rep in range(3):
        request = JobRequest.make("compile", "top-k", source=_source(statements, rep))
        # The collector is paused around the timed call: the test measures
        # the compiler's algorithm, not when the allocator triggers a
        # collection of the objects it made.
        gc.disable()
        try:
            start = time.perf_counter()
            execute(request)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def test_compile_time_is_linear_in_straight_line_code():
    base = _compile_seconds(BASE)
    ratios = {n: _compile_seconds(n * BASE) / base for n in (4, 16)}
    assert ratios[4] <= 6 and ratios[16] <= 24, (
        f"compile time for 4x / 16x the statements: {ratios[4]:.1f}x / "
        f"{ratios[16]:.1f}x of {base:.3f} s (at most 1.5x linear)"
    )
