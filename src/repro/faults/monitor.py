"""Conservation-invariant monitoring for the accelerator simulator.

The simulator's correctness story leans on conservation laws: every FIFO
value pushed is popped, still queued, or flushed at a join; every worker
cycle lands in exactly one telemetry category; the clock and the
invocation count only grow.  :class:`InvariantMonitor` checks those
laws every ``interval`` cycles (and once at end of run) and raises a
structured :class:`~repro.errors.InvariantViolationError` instead of
letting a corrupt simulator state produce silently wrong results.

Checks are read-only, so attaching a monitor never changes the simulated
history — both engines stay bit-identical with or without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvariantViolationError

#: Default check cadence in cycles.
DEFAULT_INTERVAL = 4096


@dataclass(frozen=True)
class InvariantViolation:
    """One failed conservation check."""

    check: str
    subject: str
    expected: object
    actual: object
    cycle: int

    def describe(self) -> str:
        return (
            f"[cycle {self.cycle}] {self.check} violated for {self.subject}: "
            f"expected {self.expected}, got {self.actual}"
        )


class InvariantMonitor:
    """Periodic conservation checker attached to one accelerator system.

    The monitor holds the only cross-check state (previous clock and
    invocation readings for the monotonicity checks);
    ``AcceleratorSystem.run`` calls :meth:`start_run` so a reused system
    starts every run from a clean slate.
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.interval = interval
        self.checks_run = 0
        self._last_cycle = -1
        self._last_invocations = 0

    def start_run(self) -> None:
        self.checks_run = 0
        self._last_cycle = -1
        self._last_invocations = 0

    # -- checking -----------------------------------------------------------

    def check(self, system, cycle: int, final: bool = False) -> None:
        """Verify every invariant against ``system`` after ``cycle`` cycles.

        Raises :class:`InvariantViolationError` listing *all* failed
        checks (not just the first), so a diagnosis shows the whole
        blast radius of a corrupted state.
        """
        violations: list[InvariantViolation] = []
        self._check_fifos(system, cycle, violations)
        self._check_workers(system, cycle, violations)
        self._check_monotone(system, cycle, violations)
        self.checks_run += 1
        if violations:
            lines = [
                f"{len(violations)} invariant violation(s) at cycle {cycle}:"
            ] + [f"  - {v.describe()}" for v in violations]
            raise InvariantViolationError("\n".join(lines), violations)

    def _check_fifos(self, system, cycle, violations) -> None:
        total_pushes = total_pops = 0
        for fifo in system.fifos.values():
            stats = fifo.stats
            total_pushes += stats.pushes
            total_pops += stats.pops
            occupancy = sum(len(q) for q in fifo.queues)
            # Value conservation: in == out + queued + flushed-at-join.
            expected = stats.pops + occupancy + stats.flushed
            if stats.pushes != expected:
                violations.append(InvariantViolation(
                    "fifo value conservation (pushes == pops + occupancy + flushed)",
                    fifo.name, expected, stats.pushes, cycle,
                ))
            for index, queue in enumerate(fifo.queues):
                if len(queue) > fifo.depth:
                    violations.append(InvariantViolation(
                        "fifo occupancy bound (len(queue) <= depth)",
                        f"{fifo.name} queue {index}",
                        f"<= {fifo.depth}", len(queue), cycle,
                    ))
            if stats.max_occupancy > fifo.depth:
                violations.append(InvariantViolation(
                    "fifo max-occupancy bound",
                    fifo.name, f"<= {fifo.depth}",
                    stats.max_occupancy, cycle,
                ))
            for name in ("pushes", "pops", "full_stall_cycles",
                         "empty_stall_cycles", "flushed"):
                value = getattr(stats, name)
                if value < 0:
                    violations.append(InvariantViolation(
                        "non-negative counter", f"{fifo.name}.{name}",
                        ">= 0", value, cycle,
                    ))
        # Token conservation across the worker/FIFO boundary.
        worker_pushes = sum(w.stats.fifo_pushes for w in system._workers)
        worker_pops = sum(w.stats.fifo_pops for w in system._workers)
        if worker_pushes != total_pushes:
            violations.append(InvariantViolation(
                "token conservation (worker pushes == fifo pushes)",
                "system", total_pushes, worker_pushes, cycle,
            ))
        if worker_pops != total_pops:
            violations.append(InvariantViolation(
                "token conservation (worker pops == fifo pops)",
                "system", total_pops, worker_pops, cycle,
            ))

    def _check_workers(self, system, cycle, violations) -> None:
        event_engine = system._scheduler is not None
        for worker in system._workers:
            stats = worker.stats
            # Cycle conservation against telemetry attribution: every
            # attributed cycle lands in exactly one category, and the
            # categories sum to the cycles attributed so far (the whole
            # clock under lockstep; up to ``synced_until`` under the
            # event engine, which batch-attributes skipped stall spans
            # only when the worker next wakes).
            expected = worker.synced_until if event_engine else cycle
            if stats.total_cycles != expected:
                violations.append(InvariantViolation(
                    "cycle conservation (sum of categories == attributed cycles)",
                    worker.name, expected, stats.total_cycles, cycle,
                ))
            for name, value in stats.breakdown().items():
                if value < 0:
                    violations.append(InvariantViolation(
                        "non-negative cycle category",
                        f"{worker.name}.{name}", ">= 0", value, cycle,
                    ))

    def _check_monotone(self, system, cycle, violations) -> None:
        if cycle < self._last_cycle:
            violations.append(InvariantViolation(
                "monotone clock", "system", f">= {self._last_cycle}",
                cycle, cycle,
            ))
        self._last_cycle = cycle
        if system.invocations < self._last_invocations:
            violations.append(InvariantViolation(
                "monotone invocation count", "system",
                f">= {self._last_invocations}", system.invocations, cycle,
            ))
        self._last_invocations = system.invocations
