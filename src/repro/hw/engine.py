"""Event-driven skip-ahead clock engine for the accelerator system.

The lockstep engine (``AcceleratorSystem._run_lockstep``) ticks every
worker on every cycle, which makes stall-dominated simulations pay full
price for cycles in which no FSM can possibly advance.  This engine keeps
the *semantics* of lockstep — same tick order, same per-cycle stall
accounting, same trace spans — but only simulates cycles at which at
least one worker can make progress:

* Workers report an exact next-due cycle after every tick: compute ticks
  are due next cycle, cache waits are due when the cache said the data is
  ready, a freshly forked worker is due at its ``start_cycle``.
* FIFO waits and join waits have no statically-known wake cycle, so those
  workers park at :data:`~repro.hw.worker.NEVER` and register a wake
  condition; FIFO pushes/pops/resets and worker-finish signals re-arm
  them without any polling.
* The clock then jumps directly to the minimum next-due cycle.  The
  skipped span is batch-attributed to each worker's current wait category
  (and to the FIFO stall counters a lockstep retry loop would have
  bumped), so ``WorkerStats``, ``SimReport`` and the telemetry spans come
  out bit-identical — skipping changes wall-clock time, never cycle
  counts.  ``tests/test_engine_equivalence.py`` pins this down
  differentially against the lockstep oracle.

What the clock calls at a due cycle is the worker's ``resume``: its
``tick`` for the interpretive worker, and for a
rendered worker (:mod:`repro.hw.specialize`) its generator's ``send``,
with no prelude in between; that generator's last return arrives as
``StopIteration``.

Same-cycle wake rule: lockstep ticks workers in list order, so an event
produced by worker *i* at cycle *c* is visible to a blocked worker *j*
within cycle *c* only if *j* ticks after *i* (``j.seq > i.seq``);
otherwise *j* first sees it at ``c + 1``.  The scheduler reproduces this
exactly, which is what makes producer/consumer timing bit-identical.

Deadlock detection becomes exact: the lockstep engine infers deadlock
from 16k cycles without progress, while here "every worker parked at
``NEVER``" *is* the condition "no runnable worker and no pending event".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..faults.watchdog import WATCHDOG
from ..telemetry.events import CycleCategory
from .worker import NEVER, HwWorker

if TYPE_CHECKING:  # pragma: no cover
    from .fifo import FifoBuffer
    from .system import AcceleratorSystem


class EventScheduler:
    """Runs one simulation by jumping between worker wake events."""

    def __init__(self, system: "AcceleratorSystem") -> None:
        self.system = system
        #: id(fifo) -> workers blocked on that buffer (full or empty).
        self._fifo_waiters: dict[int, list[HwWorker]] = {}
        #: loop_id -> workers blocked in parallel_join on that group.
        self._join_waiters: dict[int, list[HwWorker]] = {}
        self._cycle = 0
        #: seq of the worker currently ticking (-1 outside the tick loop);
        #: wake targets compare against it for the same-cycle rule.
        self._active_seq = -1
        #: The workers the clock scans: every one registered but the
        #: finished, which are never due again.
        self.live: list[HwWorker] = []

    # -- wait registration (called from HwWorker._retire) ----------------------

    def wait_on_fifo(self, worker: HwWorker, fifo: "FifoBuffer") -> None:
        waiters = self._fifo_waiters.setdefault(id(fifo), [])
        # A worker can re-block on the same buffer after an injected
        # back-pressure timer expired without ever being woken (and thus
        # without being removed from the list); don't register it twice.
        if worker not in waiters:
            waiters.append(worker)

    def wait_on_join(self, worker: HwWorker, loop_id: int) -> None:
        self._join_waiters.setdefault(loop_id, []).append(worker)

    def add(self, worker: HwWorker) -> None:
        """A worker joins the clock (called from the system)."""
        self.live.append(worker)

    # -- wake notifications (called from FifoBuffer / the system) --------------

    def fifo_pushed(self, fifo: "FifoBuffer", index: int | None) -> None:
        """Data arrived: wake consumers (``index=None`` for broadcast)."""
        waiters = self._fifo_waiters.get(id(fifo))
        if not waiters:
            return
        for worker in list(waiters):
            if worker.wait_category is CycleCategory.FIFO_EMPTY and (
                index is None or worker._blocked_index == index
            ):
                self._wake(worker, waiters)

    def fifo_popped(self, fifo: "FifoBuffer", index: int) -> None:
        """Space freed: wake producers of this queue and broadcasters."""
        waiters = self._fifo_waiters.get(id(fifo))
        if not waiters:
            return
        for worker in list(waiters):
            if worker.wait_category is CycleCategory.FIFO_FULL and (
                worker._blocked_index is None
                or worker._blocked_index == index
            ):
                self._wake(worker, waiters)

    def fifo_reset(self, fifo: "FifoBuffer") -> None:
        """All queues flushed: every producer wait is satisfiable again."""
        waiters = self._fifo_waiters.get(id(fifo))
        if not waiters:
            return
        for worker in list(waiters):
            if worker.wait_category is CycleCategory.FIFO_FULL:
                self._wake(worker, waiters)

    def worker_done(self, worker: HwWorker) -> None:
        """A worker raised its finish signal; maybe its join completed."""
        # A new list: a pass over the old one may be under way.
        self.live = [w for w in self.live if w is not worker]
        loop_id = worker.loop_id
        if loop_id is None:
            return
        waiters = self._join_waiters.get(loop_id)
        if not waiters or not self.system.join_ready(loop_id):
            return
        for waiter in list(waiters):
            self._wake(waiter, waiters)

    def _wake(self, worker: HwWorker, waiters: list[HwWorker]) -> None:
        waiters.remove(worker)
        # Same-cycle if the blocked worker's tick slot is still ahead of
        # the acting worker's in this cycle, next cycle otherwise.
        due = (
            self._cycle
            if worker.seq > self._active_seq
            else self._cycle + 1
        )
        if due < worker.next_due:
            worker.next_due = due

    # -- stall-span attribution -------------------------------------------------

    def _flush(self, worker: HwWorker, upto: int) -> None:
        """Batch-attribute the unsynced span ``[synced_until, upto)``.

        Mirrors exactly what per-cycle lockstep ticks would have written:
        the worker's stall counter for its wait category, the FIFO's
        retry-stall counters when blocked on a queue, and one coalesced
        trace span.
        """
        start = worker.synced_until
        n = upto - start
        if n <= 0:
            return
        category = worker.wait_category
        stats = worker.stats
        if category is CycleCategory.CACHE:
            stats.mem_stall_cycles += n
        elif category is CycleCategory.FIFO_FULL:
            stats.fifo_full_stall_cycles += n
            worker._blocked_fifo.stats.full_stall_cycles += n
        elif category is CycleCategory.FIFO_EMPTY:
            stats.fifo_empty_stall_cycles += n
            worker._blocked_fifo.stats.empty_stall_cycles += n
        elif category is CycleCategory.JOIN:
            stats.join_stall_cycles += n
        else:
            stats.idle_cycles += n
        if self.system.sink.enabled:
            self.system.sink.worker_span(worker.name, category, start, upto)
        worker.synced_until = upto

    # -- clock loop -------------------------------------------------------------

    def run(self, main: HwWorker) -> int:
        """Drive the clock until ``main`` finishes; returns total cycles."""
        system = self.system
        max_cycles = system.max_cycles
        cycle = 0
        while not main.done:
            # Manual min loop: a genexpr resumes one generator frame per
            # worker, which dominates the clock-advance cost on small
            # systems; this runs every simulated cycle.
            live = self.live
            cycle = NEVER
            for w in live:
                due = w.next_due
                if due < cycle:
                    cycle = due
            if cycle >= NEVER:
                # self._cycle is the last simulated cycle — the one at
                # which the final worker blocked, which is exactly where
                # the lockstep engine's per-cycle check fires too.
                raise WATCHDOG.deadlock(system, self._cycle)
            if cycle >= max_cycles:
                # Lockstep never completes a run whose clock reaches
                # max_cycles; fail with the identical error without
                # grinding through the remaining cycles.
                raise WATCHDOG.budget_exceeded(system, cycle)
            self._cycle = cycle
            # Iterating the live list is safe: forks only append, and a
            # freshly forked worker's next_due (start_cycle = cycle + 1)
            # can never pass the due check within the forking cycle; a
            # worker that finishes replaces the list instead.
            for worker in live:
                if worker.next_due <= cycle:
                    self._active_seq = worker.seq
                    if worker.synced_until < cycle:
                        self._flush(worker, cycle)
                    try:
                        worker.resume(cycle)
                    except StopIteration:  # a rendered worker's last return
                        pass
            self._active_seq = -1
            cycle += 1
        # Pad every worker to the run's end: lockstep keeps clocking
        # finished (idle) and still-blocked workers until main retires.
        for worker in system._workers:
            if worker.synced_until < cycle:
                self._flush(worker, cycle)
        return cycle
