"""Deterministic fault injection, conservation checking, and watchdog
diagnosis for the accelerator simulator.

Three cooperating pieces:

* :mod:`repro.faults.plan` — seeded :class:`FaultPlan` schedules
  (latency, port stalls, FIFO back-pressure, worker hangs, value
  corruption) and the :class:`FaultInjector` that applies one plan
  through the hardware models' injection hooks;
* :mod:`repro.faults.conservation` — :func:`check_conservation`, the
  conservation laws every run of ``AcceleratorSystem.run`` ends with (and
  every watchdog exit): a broken one raises a structured report instead
  of letting a corrupt state produce silently wrong results;
* :mod:`repro.faults.watchdog` — :class:`Watchdog` wait-for-graph
  deadlock diagnosis, carried on the typed exceptions
  :class:`~repro.errors.DeadlockError` /
  :class:`~repro.errors.CycleBudgetExceeded`.

The resilience sweep lives in :mod:`repro.faults.sweep` (imported
explicitly, not re-exported here: it depends on the harness, which
depends on the hardware models, which depend on this package).
"""

from .conservation import InvariantViolation, check_conservation
from .plan import (
    NULL_INJECTOR,
    PLAN_KINDS,
    CachePortStallFault,
    FaultInjector,
    FaultPlan,
    FifoBackpressureFault,
    FifoCorruptionFault,
    MemLatencyFault,
    NullInjector,
    PlanContext,
    WorkerHangFault,
    flip_value,
)
from .watchdog import (
    WATCHDOG,
    BlockedWorker,
    DeadlockDiagnosis,
    Watchdog,
)

__all__ = [
    "FaultPlan", "PlanContext", "FaultInjector", "NullInjector",
    "NULL_INJECTOR", "PLAN_KINDS",
    "MemLatencyFault", "CachePortStallFault", "FifoBackpressureFault",
    "WorkerHangFault", "FifoCorruptionFault", "flip_value",
    "check_conservation", "InvariantViolation",
    "Watchdog", "WATCHDOG", "DeadlockDiagnosis", "BlockedWorker",
]
