"""Exception hierarchy for the CGPA reproduction.

Every layer of the tool raises a subclass of :class:`CgpaError` so callers
can catch failures from the whole flow with a single except clause while
still being able to distinguish frontend errors from backend errors.
"""

from __future__ import annotations


class CgpaError(Exception):
    """Base class for all errors raised by this package."""


class LexerError(CgpaError):
    """Raised when the C-subset lexer encounters an invalid token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(CgpaError):
    """Raised when the C-subset parser encounters invalid syntax."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class NestingError(CgpaError):
    """Raised when source nests deeper than the recursive frontend can walk."""


class SemanticError(CgpaError):
    """Raised for type errors and undeclared identifiers."""


class IRError(CgpaError):
    """Raised for malformed IR (verifier failures, bad construction)."""


class InterpError(CgpaError):
    """Raised when the IR interpreter hits undefined behaviour."""


class AnalysisError(CgpaError):
    """Raised when an analysis is asked something it cannot answer."""


class PartitionError(CgpaError):
    """Raised when no legal pipeline partition exists for a loop."""


class TransformError(CgpaError):
    """Raised when the pipeline transformation cannot be applied."""


class ScheduleError(CgpaError):
    """Raised when the RTL scheduler cannot satisfy its constraints."""


class SimulationError(CgpaError):
    """Raised on hardware-simulator level failures (deadlock, bad state)."""


class DeadlockError(SimulationError):
    """The hardware reached a state from which no worker can ever progress.

    Carries a structured wait-for-graph report
    (:class:`repro.faults.watchdog.DeadlockDiagnosis`) in ``diagnosis``:
    which worker is blocked on which FIFO operation, queue occupancy
    snapshots, and the suspected cycle of mutually-waiting workers.  The
    string form is the formatted diagnosis, so legacy callers that grep
    the message keep working.  ``cycle`` is the cycle it was detected at.
    """

    def __init__(self, message: str, diagnosis=None) -> None:
        super().__init__(message)
        self.diagnosis = diagnosis
        self.cycle = diagnosis.cycle if diagnosis is not None else None


class CycleBudgetExceeded(SimulationError):
    """The simulated clock passed ``max_cycles`` without finishing.

    Distinct from :class:`DeadlockError`: the system was still making
    progress (or at least could have), it just ran past its budget —
    livelock, pathological slowdown, or a budget set too tight.
    """

    def __init__(self, max_cycles: int, cycle: int | None = None) -> None:
        super().__init__(f"exceeded max_cycles={max_cycles}")
        self.max_cycles = max_cycles
        self.cycle = cycle


class InvariantViolationError(SimulationError):
    """A conservation invariant failed during simulation.

    Raised by :func:`repro.faults.conservation.check_conservation`, which
    every ``AcceleratorSystem.run`` ends with, instead of letting a
    corrupt simulator state produce silently wrong results; on a
    watchdog exit it is chained from the :class:`DeadlockError` or
    :class:`CycleBudgetExceeded`.  ``violations`` is the list of
    structured :class:`repro.faults.conservation.InvariantViolation`
    records.
    """

    def __init__(self, message: str, violations=None) -> None:
        super().__init__(message)
        self.violations = violations or []
