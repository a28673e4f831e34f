"""Hardware FIFO buffers connecting pipeline stages (paper Fig. 2).

One :class:`FifoBuffer` materialises one compiler
:class:`~repro.ir.primitives.Channel`: ``n_channels`` independent queues
(one per consumer worker), each ``depth`` entries deep — the buffer's own
figure, given by the system that instantiates it.  Pushes to a full
queue and pops from an empty queue stall the issuing FSM — the mechanism
that lets the pipeline tolerate variable memory latency (Section 2.2).

Occupancy changes are reported to the attached telemetry sink (the
zero-overhead :data:`~repro.telemetry.events.NULL_SINK` by default), so a
traced run can reconstruct every queue's fill level over time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..faults.plan import NULL_INJECTOR
from ..ir.primitives import DEFAULT_FIFO_DEPTH, Channel
from ..telemetry.events import NULL_SINK, TraceSink

if TYPE_CHECKING:  # pragma: no cover
    from .engine import EventScheduler


@dataclass
class FifoStats:
    """Push/pop/stall counters for one FIFO buffer."""

    pushes: int = 0
    pops: int = 0
    full_stall_cycles: int = 0
    empty_stall_cycles: int = 0
    max_occupancy: int = 0
    #: Values discarded by a join-time :meth:`FifoBuffer.reset`; closes the
    #: conservation law ``pushes == pops + occupancy + flushed`` that every
    #: run ends by checking (:mod:`repro.faults.conservation`).
    flushed: int = 0
    #: Static geometry, mirrored here so post-hoc analysis
    #: (:mod:`repro.telemetry.bottleneck`) can tell saturation from slack.
    depth: int = 0
    n_queues: int = 0

    def to_dict(self) -> dict:
        return {
            "pushes": self.pushes,
            "pops": self.pops,
            "full_stall_cycles": self.full_stall_cycles,
            "empty_stall_cycles": self.empty_stall_cycles,
            "max_occupancy": self.max_occupancy,
            "flushed": self.flushed,
            "depth": self.depth,
            "n_queues": self.n_queues,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FifoStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class FifoBuffer:
    """Bounded multi-queue FIFO with stall accounting."""

    def __init__(
        self,
        channel: Channel,
        sink: TraceSink = NULL_SINK,
        depth: int = DEFAULT_FIFO_DEPTH,
    ) -> None:
        self.channel = channel
        self.depth = depth  # entries per queue
        self.queues: list[deque] = [deque() for _ in range(channel.n_channels)]
        self.stats = FifoStats(depth=depth, n_queues=channel.n_channels)
        self.sink = sink
        #: Fault-injection hooks (the zero-overhead null injector unless a
        #: :class:`~repro.faults.plan.FaultInjector` is attached).
        self.injector = NULL_INJECTOR
        #: Event scheduler to notify on push/pop/reset so blocked workers
        #: re-arm without polling (None under the lockstep engine).
        self.engine: "EventScheduler | None" = None

    @property
    def name(self) -> str:
        """Display name, matching the ``SimReport.fifo_stats`` keys."""
        return f"buf{self.channel.channel_id}:{self.channel.name}"

    # -- capacity ----------------------------------------------------------------

    def can_push(self, index: int) -> bool:
        return len(self.queues[index]) < self.depth

    def can_push_broadcast(self) -> bool:
        return all(len(q) < self.depth for q in self.queues)

    def can_pop(self, index: int) -> bool:
        return bool(self.queues[index])

    def injected_block_until(self, cycle: int) -> int:
        """End of an injected back-pressure window covering ``cycle``.

        0 when pushes are unhindered.  Producers treat an active window
        exactly like a full queue (a ``fifo_full_stall`` cycle), except
        the blocked FSM can re-arm on the window end rather than waiting
        for a pop event.
        """
        if self.injector.enabled:
            return self.injector.fifo_blocked_until(self, cycle)
        return 0

    # -- data ---------------------------------------------------------------------

    def push(self, index: int, value, cycle: int = 0) -> None:
        queue = self.queues[index]
        if len(queue) >= self.depth:
            raise SimulationError(
                f"{self.name}: push to full queue {index} "
                f"(depth {self.depth})"
            )
        if self.injector.enabled:
            value = self.injector.corrupt_value(self, value)
        queue.append(value)
        stats = self.stats
        stats.pushes += 1
        if len(queue) > stats.max_occupancy:
            stats.max_occupancy = len(queue)
        if self.sink.enabled:
            self.sink.fifo_occupancy(self.name, index, cycle, len(queue))
        if self.engine is not None:
            self.engine.fifo_pushed(self, index)

    def push_broadcast(self, value, cycle: int = 0) -> None:
        if not self.can_push_broadcast():
            raise SimulationError(f"{self.name}: broadcast push to full buffer")
        for index, queue in enumerate(self.queues):
            copy = value
            if self.injector.enabled:
                # Each queue holds its own BRAM copy of a broadcast value,
                # so an upset flips one copy; counting per copy also keeps
                # the injector's push counter aligned with stats.pushes.
                copy = self.injector.corrupt_value(self, value)
            queue.append(copy)
            self.stats.max_occupancy = max(self.stats.max_occupancy, len(queue))
            if self.sink.enabled:
                self.sink.fifo_occupancy(self.name, index, cycle, len(queue))
        self.stats.pushes += len(self.queues)
        if self.engine is not None:
            self.engine.fifo_pushed(self, None)

    def pop(self, index: int, cycle: int = 0):
        queue = self.queues[index]
        if not queue:
            raise SimulationError(f"{self.name}: pop from empty queue {index}")
        self.stats.pops += 1
        value = queue.popleft()
        if self.sink.enabled:
            self.sink.fifo_occupancy(self.name, index, cycle, len(queue))
        if self.engine is not None:
            self.engine.fifo_popped(self, index)
        return value

    def occupancy(self, index: int) -> int:
        return len(self.queues[index])

    def reset(self, cycle: int = 0) -> None:
        """Flush all queues (accelerator start signal)."""
        for index, queue in enumerate(self.queues):
            had = bool(queue)
            self.stats.flushed += len(queue)
            queue.clear()
            if had and self.sink.enabled:
                self.sink.fifo_occupancy(self.name, index, cycle, 0)
        if self.engine is not None:
            self.engine.fifo_reset(self)

    def reset_run(self) -> None:
        """Start-of-run reset: flush queues and zero the stall counters.

        ``AcceleratorSystem.run`` calls this so a reused system reports
        only the current run's FIFO activity instead of accumulating
        across invocations of ``run()``.
        """
        for queue in self.queues:
            queue.clear()
        self.stats = FifoStats(depth=self.depth, n_queues=self.channel.n_channels)
