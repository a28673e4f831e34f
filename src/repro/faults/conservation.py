"""Conservation laws of the accelerator simulator, checked on every run.

The simulator's correctness story leans on conservation laws: every FIFO
value pushed is popped, still queued, or flushed at a join; every token
a worker pushes or pops is one its buffer counted; every worker cycle
lands in exactly one telemetry category.  ``AcceleratorSystem.run``
calls :func:`check_conservation` at the end of every run — on every
engine — and on the watchdog's deadlock and
cycle-budget exits, so a corrupt simulator state raises a structured
:class:`~repro.errors.InvariantViolationError` instead of producing
silently wrong numbers.  The check only reads: it changes no simulated
history.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvariantViolationError

#: FIFO counters that only ever grow.
_FIFO_COUNTERS = (
    "pushes", "pops", "full_stall_cycles", "empty_stall_cycles", "flushed",
)


@dataclass(frozen=True)
class InvariantViolation:
    """One failed conservation check."""

    check: str
    subject: str
    expected: object
    actual: object

    def describe(self) -> str:
        return (
            f"{self.check} violated for {self.subject}: "
            f"expected {self.expected}, got {self.actual}"
        )


def check_conservation(system, cycles: int, cause: Exception | None = None) -> None:
    """Verify every conservation law of ``system`` after ``cycles`` cycles.

    A run that ended passes its length: every worker's categories must
    then sum to it, as :attr:`~repro.hw.system.SimReport.stall_breakdown`
    promises.  A run the watchdog stopped passes the cycle it stopped at
    and the watchdog's error as ``cause``: each worker is checked up to
    the cycle its attribution reached (``synced_until``), and the error
    raised is chained from ``cause``.

    Raises :class:`InvariantViolationError` listing *all* failed checks
    (not just the first), so a diagnosis shows the whole blast radius of
    a corrupted state.
    """
    violations: list[InvariantViolation] = []

    def fail(check: str, subject: str, expected, actual) -> None:
        violations.append(InvariantViolation(check, subject, expected, actual))

    fifo_pushes = fifo_pops = 0
    for fifo in system.fifos.values():
        stats = fifo.stats
        fifo_pushes += stats.pushes
        fifo_pops += stats.pops
        # Value conservation: in == out + queued + flushed-at-join.
        expected = stats.pops + sum(map(len, fifo.queues)) + stats.flushed
        if stats.pushes != expected:
            fail("fifo value conservation (pushes == pops + occupancy + flushed)",
                 fifo.name, expected, stats.pushes)
        for index, queue in enumerate(fifo.queues):
            if len(queue) > fifo.depth:
                fail("fifo occupancy bound (len(queue) <= depth)",
                     f"{fifo.name} queue {index}", f"<= {fifo.depth}", len(queue))
        if stats.max_occupancy > fifo.depth:
            fail("fifo max-occupancy bound",
                 fifo.name, f"<= {fifo.depth}", stats.max_occupancy)
        for name in _FIFO_COUNTERS:
            value = getattr(stats, name)
            if value < 0:
                fail("non-negative counter", f"{fifo.name}.{name}", ">= 0", value)

    workers = system._workers
    # Token conservation across the worker/FIFO boundary.
    worker_pushes = sum(w.stats.fifo_pushes for w in workers)
    if worker_pushes != fifo_pushes:
        fail("token conservation (worker pushes == fifo pushes)",
             "system", fifo_pushes, worker_pushes)
    worker_pops = sum(w.stats.fifo_pops for w in workers)
    if worker_pops != fifo_pops:
        fail("token conservation (worker pops == fifo pops)",
             "system", fifo_pops, worker_pops)

    for worker in workers:
        stats = worker.stats
        # Cycle conservation: every attributed cycle lands in exactly one
        # category (the event clock attributes a skipped stall span only
        # when the worker next wakes, or at the run's end).
        total = stats.total_cycles
        if total != worker.synced_until:
            fail("cycle conservation (sum of categories == attributed cycles)",
                 worker.name, worker.synced_until, total)
        if cause is None and total != cycles:
            fail("cycle conservation (sum of categories == run cycles)",
                 worker.name, cycles, total)
        for name, value in stats.breakdown().items():
            if value < 0:
                fail("non-negative cycle category",
                     f"{worker.name}.{name}", ">= 0", value)

    if violations:
        lines = [
            f"{len(violations)} invariant violation(s) at cycle {cycles}:"
        ] + [f"  - {v.describe()}" for v in violations]
        raise InvariantViolationError("\n".join(lines), violations) from cause
