"""Event/span core of the telemetry subsystem.

The hardware simulator attributes **every worker cycle to exactly one
category** (the invariant the cycle-conservation tests pin down):

* ``COMPUTE``    — the FSM advanced a state or retired operations;
* ``CACHE``      — stalled waiting for the cache/memory port (the paper's
  variable-latency memory accesses, Section 2.2);
* ``FIFO_FULL``  — a ``produce`` blocked on a full downstream queue;
* ``FIFO_EMPTY`` — a ``consume`` blocked on an empty upstream queue;
* ``JOIN``       — the parent FSM waiting in ``parallel_join`` for worker
  finish signals;
* ``IDLE``       — held in reset (before ``parallel_fork``) or finished.

Sinks receive these attributions plus FSM-state changes, FIFO occupancy
samples and cache transactions.  Attributions arrive as ``worker_span``
calls, each a half-open cycle range of one category: a ticked cycle, a
run of cycles closed at once (the specialized engine's run-ahead), the
event-driven engine's skip-ahead stall spans and pre-start reset holds.
Together they cover every cycle exactly once.  The default :data:`NULL_SINK` is a
do-nothing singleton; instrumented code guards every emission with the
sink's ``enabled`` flag (a plain attribute read), so an untraced
simulation pays one boolean check per event site and nothing else.

:class:`MemoryTraceSink` is the standard recording sink: it coalesces
per-cycle attributions into :class:`Span` runs and keeps everything the
exporters (:mod:`repro.telemetry.chrome_trace`,
:mod:`repro.telemetry.vcd`) and the analyzer
(:mod:`repro.telemetry.bottleneck`) need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable


class CycleCategory(str, enum.Enum):
    """What one worker cycle was spent on (exactly one per cycle)."""

    COMPUTE = "compute"
    CACHE = "cache_stall"
    FIFO_FULL = "fifo_full_stall"
    FIFO_EMPTY = "fifo_empty_stall"
    JOIN = "join_stall"
    IDLE = "idle"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All categories in display order (stall tables, VCD encodings).
ALL_CATEGORIES: tuple[CycleCategory, ...] = (
    CycleCategory.COMPUTE,
    CycleCategory.CACHE,
    CycleCategory.FIFO_FULL,
    CycleCategory.FIFO_EMPTY,
    CycleCategory.JOIN,
    CycleCategory.IDLE,
)

#: Stable small-integer code per category (VCD vectors, compact JSON).
CATEGORY_CODES: dict[CycleCategory, int] = {
    cat: i for i, cat in enumerate(ALL_CATEGORIES)
}


@runtime_checkable
class TraceSink(Protocol):
    """Receiver protocol for simulator telemetry.

    Implementations must expose ``enabled``; instrumented code skips the
    call entirely when it is false, so a sink can rely on being invoked
    only while enabled.
    """

    enabled: bool

    def begin_run(self, worker_names: list[str]) -> None:
        """A simulation is starting (workers may still be forked later)."""

    def worker_span(
        self, worker: str, category: CycleCategory, start: int, end: int
    ) -> None:
        """Attribute a half-open cycle range ``[start, end)`` at once."""

    def worker_state(
        self, worker: str, cycle: int, block: str, state: int
    ) -> None:
        """The worker's FSM sits in ``block``/``state`` this cycle."""

    def fifo_occupancy(
        self, fifo: str, queue: int, cycle: int, occupancy: int
    ) -> None:
        """Queue ``queue`` of buffer ``fifo`` holds ``occupancy`` values."""

    def cache_access(
        self,
        cycle: int,
        addr: int,
        is_write: bool,
        hit: bool,
        ready: int,
    ) -> None:
        """One cache transaction issued at ``cycle``, data ready at ``ready``."""

    def end_run(self, cycles: int) -> None:
        """Simulation finished after ``cycles`` total cycles."""


class NullSink:
    """Zero-overhead default sink: never enabled, every hook a no-op."""

    enabled = False

    def begin_run(self, worker_names: list[str]) -> None:
        pass

    def worker_span(self, worker, category, start, end) -> None:
        pass

    def worker_state(self, worker, cycle, block, state) -> None:
        pass

    def fifo_occupancy(self, fifo, queue, cycle, occupancy) -> None:
        pass

    def cache_access(self, cycle, addr, is_write, hit, ready) -> None:
        pass

    def end_run(self, cycles: int) -> None:
        pass


#: Shared do-nothing sink; instrumented objects default to this.
NULL_SINK = NullSink()


@dataclass
class Span:
    """A run of consecutive cycles one worker spent in one category."""

    worker: str
    category: CycleCategory
    start: int
    end: int  # exclusive

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class StateChange:
    """FSM state transition sample (worker entered block/state at cycle)."""

    worker: str
    cycle: int
    block: str
    state: int


@dataclass
class OccupancySample:
    """FIFO queue occupancy right after a push/pop/reset."""

    fifo: str
    queue: int
    cycle: int
    occupancy: int


@dataclass
class CacheAccess:
    """One cache transaction (timing, not data)."""

    cycle: int
    addr: int
    is_write: bool
    hit: bool
    ready: int

    @property
    def latency(self) -> int:
        return self.ready - self.cycle


@dataclass
class _OpenSpan:
    """Mutable coalescing state for one worker's current category run."""

    category: CycleCategory
    start: int
    end: int


class MemoryTraceSink:
    """Recording sink: coalesces cycles into spans, keeps raw samples.

    The result of a traced run lives in four collections:

    * ``spans``          — per-worker category runs (cycle-exact cover);
    * ``state_changes``  — FSM (block, state) transitions;
    * ``occupancy``      — FIFO occupancy samples;
    * ``cache_accesses`` — cache transactions with latencies.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.state_changes: list[StateChange] = []
        self.occupancy: list[OccupancySample] = []
        self.cache_accesses: list[CacheAccess] = []
        self.worker_names: list[str] = []
        self.total_cycles: int | None = None
        self._open: dict[str, _OpenSpan] = {}
        self._last_state: dict[str, tuple[str, int]] = {}

    # -- TraceSink hooks ---------------------------------------------------------

    def begin_run(self, worker_names: list[str]) -> None:
        for name in worker_names:
            if name not in self.worker_names:
                self.worker_names.append(name)

    def worker_span(
        self, worker: str, category: CycleCategory, start: int, end: int
    ) -> None:
        if end <= start:
            return
        if worker not in self.worker_names:
            self.worker_names.append(worker)
        open_ = self._open.get(worker)
        if open_ is not None and open_.category is category and open_.end == start:
            open_.end = end
            return
        if open_ is not None:
            self.spans.append(
                Span(worker, open_.category, open_.start, open_.end)
            )
        self._open[worker] = _OpenSpan(category, start, end)

    def worker_state(
        self, worker: str, cycle: int, block: str, state: int
    ) -> None:
        key = (block, state)
        if self._last_state.get(worker) == key:
            return
        self._last_state[worker] = key
        self.state_changes.append(StateChange(worker, cycle, block, state))

    def fifo_occupancy(
        self, fifo: str, queue: int, cycle: int, occupancy: int
    ) -> None:
        self.occupancy.append(OccupancySample(fifo, queue, cycle, occupancy))

    def cache_access(
        self, cycle: int, addr: int, is_write: bool, hit: bool, ready: int
    ) -> None:
        self.cache_accesses.append(
            CacheAccess(cycle, addr, is_write, hit, ready)
        )

    def end_run(self, cycles: int) -> None:
        self.total_cycles = cycles
        self.flush()

    # -- accessors --------------------------------------------------------------

    def flush(self) -> None:
        """Close all open spans and canonicalise their order.

        Idempotent; called by ``end_run``.  Spans are sorted by
        ``(start, worker)`` — per-worker spans are disjoint, so this is a
        total chronological order.  The lockstep engine closes spans in
        cycle order while the event engine closes a blocked worker's span
        only at its wake event, so without the sort the two engines would
        produce identically-shaped traces in different list orders; with
        it, exporter output is bit-identical across engines.
        """
        for worker, open_ in self._open.items():
            self.spans.append(Span(worker, open_.category, open_.start, open_.end))
        self._open.clear()
        self.spans.sort(key=lambda span: (span.start, span.worker))

    def spans_for(self, worker: str) -> list[Span]:
        return [s for s in self.spans if s.worker == worker]

    def breakdown(self) -> dict[str, dict[str, int]]:
        """Per-worker cycles by category name, rebuilt from the spans."""
        out: dict[str, dict[str, int]] = {}
        for span in self.spans:
            per = out.setdefault(span.worker, {c.value: 0 for c in ALL_CATEGORIES})
            per[span.category.value] += span.duration
        return out
