"""Resilience sweep: inject seeded fault plans, verify graceful degradation.

For one kernel this module runs a fault-free baseline, derives a
:class:`~repro.faults.plan.PlanContext` from it, then replays the kernel
under ``n_plans`` seeded plans of each class
(:data:`~repro.faults.plan.PLAN_KINDS`):

* **timing** plans (latency / port / back-pressure faults) must leave
  the liveouts bit-identical to the interpreter oracle — the pipeline's
  FIFO decoupling absorbs them as stall cycles (the paper's Section 2.2
  claim, tested adversarially);
* **hang** plans must end in a :class:`~repro.errors.DeadlockError`
  whose watchdog diagnosis names the hung worker (detection);
* **corruption** plans are detected when the end-to-end validation (or
  the watchdog, when the flipped value derails control flow) catches
  them; silently masked flips are reported as such.

Everything is deterministic given ``(kernel, seed, n_plans)``, and the
report text is byte-identical across the simulator engines — the sweep
doubles as a differential test of the failure paths.

Plans are independent, so the sweep fans them out over the shared
:class:`~repro.fleet.FleetExecutor` (``processes``/``fleet``): plan
records come back in index order and the serial path runs the same
:func:`_run_plan_task`, so the report is byte-identical at any pool
size.  Each pool process compiles the sweep configuration once
(:func:`repro.harness.build.interned_pipeline`) and stamps out interned
workload images per run; the interpreter-oracle liveouts are computed
once, in the parent, and travel in the task tuple next to the baseline
cycle count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..errors import (
    CgpaError,
    CycleBudgetExceeded,
    DeadlockError,
    InvariantViolationError,
    SimulationError,
)
from ..fleet import FleetExecutor
from ..harness.build import compile_module, interned_pipeline
from ..harness.runner import (
    BackendResult,
    interned_check,
    interned_workload,
    run_hardware,
)
from ..hw import DEFAULT_ENGINE, DirectMappedCache
from ..interp import Interpreter
from ..kernels import KernelSpec
from ..pipeline import ReplicationPolicy
from .plan import PLAN_KINDS, FaultInjector, FaultPlan, PlanContext

#: Budget multiplier over the fault-free run: generous enough that any
#: timing fault the generator can draw still finishes, small enough that
#: a runaway run fails fast with CycleBudgetExceeded.
BUDGET_FACTOR = 64


@dataclass
class FaultRunRecord:
    """Outcome of one fault-injected simulation."""

    index: int
    kind: str
    plan: FaultPlan
    #: correct | corrupted-output | deadlock | timeout | invariant-violation
    outcome: str = "correct"
    cycles: int | None = None
    slowdown: float | None = None
    detected: bool = False
    triggered: bool = False
    diagnosis: str | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "plan": self.plan.to_dict(),
            "outcome": self.outcome,
            "cycles": self.cycles,
            "slowdown": self.slowdown,
            "detected": self.detected,
            "triggered": self.triggered,
            "diagnosis": self.diagnosis,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        kept = {k: v for k, v in data.items() if k in known}
        kept["plan"] = FaultPlan.from_dict(kept["plan"])
        return cls(**kept)


@dataclass
class ResilienceReport:
    """Aggregated outcome of one resilience sweep."""

    kernel: str
    seed: int
    n_plans: int
    baseline_cycles: int
    oracle_checksum: float
    oracle_return: float | int | None = None
    records: list[FaultRunRecord] = field(default_factory=list)
    #: Plans answered from sweep checkpoints instead of re-running.
    #: Provenance, not content: excluded from :meth:`to_dict` and
    #: comparison so a resumed report stays byte-identical to an
    #: uninterrupted one.
    replayed: int = field(default=0, compare=False)

    def by_kind(self, kind: str) -> list[FaultRunRecord]:
        return [r for r in self.records if r.kind == kind]

    # -- aggregate counters -------------------------------------------------

    @property
    def timing_correct(self) -> int:
        return sum(1 for r in self.by_kind("timing") if r.outcome == "correct")

    @property
    def hangs_diagnosed(self) -> int:
        return sum(1 for r in self.by_kind("hang") if r.detected)

    @property
    def corruptions_triggered(self) -> int:
        return sum(1 for r in self.by_kind("corruption") if r.triggered)

    @property
    def corruptions_detected(self) -> int:
        return sum(1 for r in self.by_kind("corruption") if r.detected)

    def format(self) -> str:
        """Deterministic human-readable report (engine-independent)."""
        lines = [
            f"Resilience sweep: {self.kernel} "
            f"({self.n_plans} plans/class, seed {self.seed})",
            f"  fault-free baseline: {self.baseline_cycles} cycles, "
            f"oracle checksum {self.oracle_checksum}",
            "",
            f"  timing faults     : {self.timing_correct}/"
            f"{len(self.by_kind('timing'))} plans liveout-correct "
            "(graceful degradation)",
            f"  worker hangs      : {self.hangs_diagnosed}/"
            f"{len(self.by_kind('hang'))} diagnosed by the watchdog",
            f"  value corruption  : {self.corruptions_detected}/"
            f"{self.corruptions_triggered} triggered flips detected "
            f"({self.corruptions_triggered - self.corruptions_detected} "
            "silently masked)",
            "",
        ]
        header = f"  {'#':>3} {'class':<10} {'outcome':<19} {'cycles':>9} {'slowdown':>9}  detail"
        lines.append(header)
        for r in self.records:
            cycles = "-" if r.cycles is None else str(r.cycles)
            slowdown = "-" if r.slowdown is None else f"{r.slowdown:.2f}x"
            detail = ""
            if r.diagnosis:
                detail = r.diagnosis.splitlines()[0]
            elif r.kind != "timing" and not r.triggered:
                detail = "(fault never triggered)"
            lines.append(
                f"  {r.index:>3} {r.kind:<10} {r.outcome:<19} "
                f"{cycles:>9} {slowdown:>9}  {detail}".rstrip()
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready report form: the ``faults`` job artifact, and the
        ``payload`` of the run's :class:`~repro.obs.RunEnvelope`."""
        return {
            "kernel": self.kernel,
            "seed": self.seed,
            "n_plans": self.n_plans,
            "baseline_cycles": self.baseline_cycles,
            "oracle_checksum": self.oracle_checksum,
            "oracle_return": self.oracle_return,
            "timing_correct": self.timing_correct,
            "hangs_diagnosed": self.hangs_diagnosed,
            "corruptions_triggered": self.corruptions_triggered,
            "corruptions_detected": self.corruptions_detected,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceReport":
        """Rebuild a report from :meth:`to_dict` output (or a ``faults``
        envelope payload).  The aggregate counters in the dict are
        derived state — they come back from the records, so
        :meth:`format` regenerates the original text byte-identically."""
        return cls(
            kernel=data["kernel"],
            seed=data["seed"],
            n_plans=data["n_plans"],
            baseline_cycles=data["baseline_cycles"],
            oracle_checksum=data["oracle_checksum"],
            oracle_return=data.get("oracle_return"),
            records=[
                FaultRunRecord.from_dict(r) for r in data.get("records", [])
            ],
        )


def plan_seeds(seed: int, n: int) -> list[int]:
    """The derived per-plan seeds for a sweep (deterministic, collision-free
    across the master-seed space by construction of :mod:`random`)."""
    import random

    rng = random.Random(seed)
    return [rng.randrange(1 << 32) for _ in range(n)]


def _oracle_liveouts(spec: KernelSpec) -> tuple[float, int | float | None]:
    """Interpreter oracle: the same workload run purely functionally.

    Liveouts = the final memory state (the kernel's checksum) plus the
    kernel's return value — kernels like ks report their result only
    through the latter, so corruption detection must compare both.
    """
    plain = compile_module(spec)
    memory, globals_, args = interned_workload(plain, spec)
    interp = Interpreter(plain, memory, global_addresses=globals_)
    oracle_return = interp.call(spec.measure_entry, args)
    return float(interned_check(plain, memory, globals_, spec)), oracle_return


def _simulate(
    spec: KernelSpec, engine: str, n_workers: int, fifo_depth: int, **faults
) -> BackendResult:
    """One run of the sweep configuration over a fresh workload clone;
    ``faults`` are the plan's ``max_cycles``/``injector``."""
    return run_hardware(
        spec, "cgpa-p1",
        interned_pipeline(spec, ReplicationPolicy.P1, n_workers),
        DirectMappedCache(ports=8),
        engine=engine,
        fifo_depth=fifo_depth,
        **faults,
    )


def _liveouts_match(run: BackendResult, oracle: float, oracle_return) -> bool:
    return float(run.checksum) == oracle and (
        run.return_value is None or run.return_value == oracle_return
    )


def _run_plan_task(task) -> FaultRunRecord:
    """Fleet task: run one fault plan against a fresh system.

    Takes plain picklable data: the per-process pipeline intern supplies
    the compiled module, the parent supplies the oracle liveouts.
    """
    (spec, engine, n_workers, fifo_depth, index, plan, baseline_cycles,
     oracle, oracle_return, budget) = task
    injector = FaultInjector(plan)
    record = FaultRunRecord(index=index, kind=plan.kind, plan=plan)
    try:
        run = _simulate(
            spec, engine, n_workers, fifo_depth,
            max_cycles=budget, injector=injector,
        )
    except DeadlockError as exc:
        record.outcome = "deadlock"
        record.diagnosis = str(exc)
        diagnosis = exc.diagnosis
        hung = [f for f in injector.triggered if f.kind == "worker_hang"]
        record.detected = bool(
            hung and diagnosis is not None and diagnosis.root_hang is not None
        ) or (plan.kind == "corruption" and _corruption_fired(injector))
    except CycleBudgetExceeded as exc:
        record.outcome = "timeout"
        record.diagnosis = str(exc)
        record.detected = plan.kind != "timing" and _fault_fired(injector)
    except InvariantViolationError as exc:
        record.outcome = "invariant-violation"
        record.diagnosis = str(exc)
        record.detected = _fault_fired(injector)
    except CgpaError as exc:
        # Fail-stop crash (e.g. a corrupted pointer hit unmapped memory):
        # noisy, but detected by construction.
        record.outcome = "crash"
        record.diagnosis = str(exc).splitlines()[0]
        record.detected = _fault_fired(injector)
    else:
        record.cycles = run.cycles
        record.slowdown = run.cycles / baseline_cycles
        if _liveouts_match(run, oracle, oracle_return):
            record.outcome = "correct"
        else:
            record.outcome = "corrupted-output"
            record.detected = True  # end-to-end validation caught it
    record.triggered = _fault_fired(injector)
    return record


def resilience_sweep(
    spec: KernelSpec,
    n_plans: int = 8,
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
    n_workers: int = 4,
    fifo_depth: int = 16,
    max_cycles: int | None = None,
    processes: int = 1,
    fleet: FleetExecutor | None = None,
    store=None,
    envelopes=None,
) -> ResilienceReport:
    """Run the full resilience sweep for one kernel.

    ``processes``/``fleet`` fan the per-plan runs out over the shared
    fleet executor; the report is byte-identical at any pool size.

    ``store`` (an :class:`~repro.service.ArtifactStore`) checkpoints
    every finished plan record the moment it lands and replays the
    checkpointed plans instead of re-running them (``report.replayed``
    counts them), so a SIGKILLed sweep restarted with the same arguments
    converges to a byte-identical report.  ``envelopes`` journals the
    owned fleet's supervision events (and the resume event, when a plan
    was replayed) as ``fleet`` run envelopes.
    """
    oracle, oracle_return = _oracle_liveouts(spec)

    # Fault-free hardware baseline (also the plan generator's context).
    baseline_run = _simulate(spec, engine, n_workers, fifo_depth)
    baseline = baseline_run.sim
    if not _liveouts_match(baseline_run, oracle, oracle_return):
        raise SimulationError(
            f"{spec.name}: fault-free hardware run disagrees with the "
            f"interpreter oracle; refusing to measure resilience"
        )
    ctx = PlanContext(
        horizon=baseline.cycles,
        n_workers=len(baseline.worker_stats),
        fifo_pushes=tuple(
            stats.pushes for stats in baseline.fifo_stats.values()
        ),
    )
    budget = max_cycles or baseline.cycles * BUDGET_FACTOR + 10_000

    report = ResilienceReport(
        kernel=spec.name,
        seed=seed,
        n_plans=n_plans,
        baseline_cycles=baseline.cycles,
        oracle_checksum=oracle,
        oracle_return=oracle_return,
    )
    seeds = plan_seeds(seed, n_plans * len(PLAN_KINDS))
    tasks = []
    index = 0
    for kind in PLAN_KINDS:
        for _ in range(n_plans):
            plan = FaultPlan.generate(seeds[index], kind, ctx)
            tasks.append((
                spec, engine, n_workers, fifo_depth, index, plan,
                baseline.cycles, oracle, oracle_return, budget,
            ))
            index += 1

    ckpt_keys: list[str] = []
    if store is not None:
        from ..obs.emit import run_key

        # Every knob that changes a plan or its simulation participates —
        # including the engine, so sweeps of two engines sharing one store
        # never replay each other's records.
        ckpt_keys = [
            run_key(
                "faults-plan", spec, engine=engine, n_workers=n_workers,
                fifo_depth=fifo_depth, seed=seed, n_plans=n_plans,
                max_cycles=max_cycles, index=i,
            )
            for i in range(len(tasks))
        ]
    slots: list[FaultRunRecord | None] = [None] * len(tasks)
    for i, key in enumerate(ckpt_keys):
        stored = store.get(key)
        if stored is not None:
            slots[i] = FaultRunRecord.from_dict(stored)
    report.replayed = sum(1 for r in slots if r is not None)
    pending = [tasks[i] for i, r in enumerate(slots) if r is None]

    def persist(_pos: int, record: FaultRunRecord) -> None:
        # Checkpoint each record the moment its plan finishes, so a
        # killed sweep loses at most the in-flight plans.
        slots[record.index] = record
        if store is not None:
            store.put(ckpt_keys[record.index], record.to_dict())

    owned = fleet is None
    if owned:
        fleet = FleetExecutor(
            processes, envelopes=envelopes,
            context={"subsystem": "faults", "kernel": spec.name},
        )
    try:
        if report.replayed:
            fleet.record_event(
                "resume", attempt=report.replayed,
                detail=(
                    f"replayed {report.replayed}/{len(tasks)} plan "
                    f"checkpoint(s); running {len(pending)}"
                ),
            )
        if pending:
            fleet.map(_run_plan_task, pending, on_result=persist)
    finally:
        if owned:
            fleet.close()
    assert all(r is not None for r in slots)
    report.records.extend(slots)  # type: ignore[arg-type]
    return report


def _fault_fired(injector: FaultInjector) -> bool:
    """Did any non-timing fault of the plan observably fire?"""
    if injector.plan.timing_only:
        return any(injector.triggered)
    return any(not f.timing_only for f in injector.triggered)


def _corruption_fired(injector: FaultInjector) -> bool:
    return any(f.kind == "fifo_corruption" for f in injector.triggered)
