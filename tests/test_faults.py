"""Tests for the fault-injection layer (repro.faults).

Four angles:

* plan generation/serialisation is deterministic and pure data;
* known-deadlocking pipelines fail with the same typed ``DeadlockError``
  — same cycle, same wait-for-graph diagnosis — under both engines;
* timing-only fault plans never change kernel liveouts (the graceful-
  degradation property the resilience sweep measures);
* the conservation check every run ends with passes clean runs, reports
  every violated law of a corrupted state, and catches a counter lie on
  every engine, in a sweep shard and at the watchdog's exits.
"""

import dataclasses
import functools
import json

import pytest

from repro.dse import DesignPoint, EvalResult, Evaluator
from repro.errors import (
    CycleBudgetExceeded,
    DeadlockError,
    InvariantViolationError,
    SimulationError,
)
from repro.faults import (
    NULL_INJECTOR,
    PLAN_KINDS,
    DeadlockDiagnosis,
    FaultInjector,
    FaultPlan,
    PlanContext,
    WorkerHangFault,
    check_conservation,
    flip_value,
)
from repro.faults import sweep as sweep_module
from repro.faults.sweep import plan_seeds, resilience_sweep
from repro.frontend import compile_c
from repro.harness.__main__ import main
from repro.harness import runner
from repro.harness.runner import (
    Workload,
    run_check,
    run_hardware,
    setup_workload,
)
from repro.fleet import interned_pipeline
from repro.hw import AcceleratorSystem, DirectMappedCache, FifoBuffer
from repro.interp import Interpreter, Memory
from repro.ir import (
    Consume,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    ParallelFork,
    ParallelJoin,
    Produce,
    VOID,
)
from repro.ir.primitives import ChannelPlan
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy, cgpa_compile
from repro.pipeline.spec import StageKind
from repro.pipeline.transform import TaskInfo
from repro.service import ArtifactStore, JobRequest
from repro.transforms import optimize_module

KERNEL_NAMES = [spec.name for spec in ALL_KERNELS]

#: Every simulator engine must agree on failure behaviour, not just on
#: clean runs: same deadlock cycle, same diagnosis, same hang messages.
ENGINES = ("event", "lockstep", "specialized")

#: Scaled-down ks for the cheap CLI/evaluator paths (same trick as
#: test_dse.py: full compile+simulate pipeline in tens of milliseconds).
SMALL_KS = dataclasses.replace(KERNELS_BY_NAME["ks"], setup_args=[10, 10])

_COMPILED: dict[str, object] = {}
_BASELINE: dict[str, tuple] = {}


def compiled_kernel(name: str):
    if name not in _COMPILED:
        spec = KERNELS_BY_NAME[name]
        module = compile_c(spec.source, spec.name)
        optimize_module(module)
        _COMPILED[name] = cgpa_compile(
            module, spec.accel_function, shapes=spec.shapes_for(module),
            policy=ReplicationPolicy.P1, n_workers=4,
        )
    return _COMPILED[name]


def simulate_kernel(name: str, engine: str = "event", injector=None,
                    max_cycles: int = 500_000_000):
    """Run one kernel; returns (SimReport, liveout checksum)."""
    spec = KERNELS_BY_NAME[name]
    compiled = compiled_kernel(name)
    memory, globals_, args = setup_workload(compiled.module, spec)
    system = AcceleratorSystem(
        compiled.module, memory,
        channels=compiled.result.channels,
        cache=DirectMappedCache(ports=8),
        global_addresses=globals_,
        engine=engine,
        injector=injector,
        max_cycles=max_cycles,
    )
    sim = system.run(spec.measure_entry, args)
    interp = Interpreter(compiled.module, memory, global_addresses=globals_)
    return sim, float(interp.call(spec.check_function, []))


def baseline(name: str):
    """Fault-free run of one kernel, cached: (SimReport, checksum, ctx)."""
    if name not in _BASELINE:
        sim, checksum = simulate_kernel(name)
        ctx = PlanContext(
            horizon=sim.cycles,
            n_workers=len(sim.worker_stats),
            fifo_pushes=tuple(s.pushes for s in sim.fifo_stats.values()),
        )
        _BASELINE[name] = (sim, checksum, ctx)
    return _BASELINE[name]


# -- plans: determinism and serialisation ---------------------------------------


class TestFaultPlan:
    CTX = PlanContext(horizon=10_000, n_workers=7, fifo_pushes=(164, 41, 41, 40))

    @pytest.mark.parametrize("kind", PLAN_KINDS)
    def test_generation_is_deterministic(self, kind):
        a = FaultPlan.generate(42, kind, self.CTX)
        b = FaultPlan.generate(42, kind, self.CTX)
        assert a == b
        assert a.faults  # never an empty schedule

    def test_distinct_seeds_draw_distinct_plans(self):
        plans = {FaultPlan.generate(s, "timing", self.CTX) for s in range(16)}
        assert len(plans) == 16

    @pytest.mark.parametrize("kind", PLAN_KINDS)
    def test_dict_roundtrip_through_json(self, kind):
        plan = FaultPlan.generate(7, kind, self.CTX)
        wire = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(wire) == plan

    def test_kind_classification(self):
        assert FaultPlan.generate(3, "timing", self.CTX).timing_only
        assert not FaultPlan.generate(3, "hang", self.CTX).timing_only
        assert not FaultPlan.generate(3, "corruption", self.CTX).timing_only

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown plan kind"):
            FaultPlan.generate(0, "cosmic", self.CTX)

    def test_plan_seeds_deterministic(self):
        assert plan_seeds(5, 12) == plan_seeds(5, 12)
        assert plan_seeds(5, 12) != plan_seeds(6, 12)

    def test_flip_value_semantics(self):
        assert flip_value(10, 0b110) == 10 ^ 0b110
        assert flip_value(True, 99) is False
        flipped = flip_value(4.25, 12345)
        assert flipped != 4.25
        # Mantissa-only flip: sign and exponent survive, value stays finite.
        assert flipped > 0
        assert abs(flipped - 4.25) / 4.25 < 1.0

    def test_null_injector_is_inert(self):
        assert NULL_INJECTOR.enabled is False
        assert NULL_INJECTOR.mem_extra(100) == 0
        assert NULL_INJECTOR.port_limited(100) is False
        assert NULL_INJECTOR.corrupt_value(None, 17) == 17
        assert NULL_INJECTOR.hang_pending(None, 100) is False


# -- deadlocks: typed, diagnosed, engine-identical ------------------------------


def _sequential_task(module: Module, name: str, body) -> object:
    """One single-worker task function whose entry block is ``body(builder)``."""
    task = module.new_function(name, FunctionType(VOID, []), [])
    builder = IRBuilder(task.new_block("entry"))
    body(builder)
    builder.ret()
    task.task_info = TaskInfo(0, 0, StageKind.SEQUENTIAL, 1)
    return task


def _fork_join_parent(module: Module, tasks) -> None:
    parent = module.new_function("parent", FunctionType(VOID, []), [])
    builder = IRBuilder(parent.new_block("entry"))
    for task in tasks:
        builder.block.append(ParallelFork(0, task, [], None))
    builder.block.append(ParallelJoin(0))
    builder.ret()


def _starved_consumer():
    """A consumer on a channel nothing ever fills (empty-wait forever)."""
    module = Module("starved")
    plan = ChannelPlan()
    chan = plan.new_channel("never", I32, 0, 1)
    task = _sequential_task(
        module, "eater", lambda b: b.block.append(Consume(chan, I32))
    )
    _fork_join_parent(module, [task])
    return module, plan


def _overrun_producer():
    """Two pushes into a channel nobody drains (full-wait forever when its
    buffer is one deep)."""
    module = Module("overrun")
    plan = ChannelPlan()
    chan = plan.new_channel("tiny", I32, 0, 1)

    def body(b):
        b.block.append(Produce(chan, IRBuilder.const_int(0),
                               IRBuilder.const_int(42)))
        b.block.append(Produce(chan, IRBuilder.const_int(0),
                               IRBuilder.const_int(43)))

    task = _sequential_task(module, "pusher", body)
    _fork_join_parent(module, [task])
    return module, plan


def _mutual_wait():
    """Two tasks each consuming what only the other (later) produces."""
    module = Module("mutual")
    plan = ChannelPlan()
    chan_ab = plan.new_channel("ab", I32, 0, 1)
    chan_ba = plan.new_channel("ba", I32, 0, 1)

    def body_a(b):
        b.block.append(Consume(chan_ba, I32))
        b.block.append(Produce(chan_ab, IRBuilder.const_int(0),
                               IRBuilder.const_int(1)))

    def body_b(b):
        b.block.append(Consume(chan_ab, I32))
        b.block.append(Produce(chan_ba, IRBuilder.const_int(0),
                               IRBuilder.const_int(2)))

    task_a = _sequential_task(module, "alpha", body_a)
    task_b = _sequential_task(module, "beta", body_b)
    _fork_join_parent(module, [task_a, task_b])
    return module, plan


DEADLOCK_TOPOLOGIES = {
    "starved-consumer": _starved_consumer,
    "overrun-producer": _overrun_producer,
    "mutual-wait": _mutual_wait,
}


def _run_until_deadlock(module, plan, engine: str) -> DeadlockError:
    # Depth-1 buffers: what makes the overrun producer block; the other
    # two topologies wait on empty queues at any depth.
    system = AcceleratorSystem(
        module, Memory(), channels=plan, engine=engine, fifo_depth=1
    )
    with pytest.raises(DeadlockError) as info:
        system.run("parent", [])
    return info.value


class TestDeadlockDiagnosis:
    @pytest.mark.parametrize("topology", sorted(DEADLOCK_TOPOLOGIES))
    def test_engines_agree_on_cycle_and_diagnosis(self, topology):
        build = DEADLOCK_TOPOLOGIES[topology]
        errors = {}
        for engine in ENGINES:
            module, plan = build()
            errors[engine] = _run_until_deadlock(module, plan, engine)
        event, lockstep = errors["event"], errors["lockstep"]
        for other in ENGINES[1:]:
            assert str(event) == str(errors[other]), other
            assert errors[other].diagnosis is not None
        assert event.diagnosis is not None
        assert event.diagnosis.cycle == lockstep.diagnosis.cycle
        for other in ENGINES[1:]:
            assert event.diagnosis.to_dict() == errors[other].diagnosis.to_dict()
        # Legacy message shape preserved for string-matching callers.
        assert "no runnable worker and no pending event" in str(event)

    def test_starved_consumer_names_worker_and_fifo(self):
        module, plan = _starved_consumer()
        error = _run_until_deadlock(module, plan, "event")
        entry = error.diagnosis.worker("eater#w0")
        assert entry is not None
        assert entry.reason == "consume"
        assert entry.fifo == "buf0:never"
        assert entry.occupancy == (0,)

    def test_overrun_producer_names_full_queue(self):
        module, plan = _overrun_producer()
        error = _run_until_deadlock(module, plan, "event")
        entry = error.diagnosis.worker("pusher#w0")
        assert entry is not None
        assert entry.reason == "produce"
        assert entry.fifo == "buf0:tiny"
        assert entry.occupancy == (1,) and entry.depth == 1

    def test_mutual_wait_reports_suspected_cycle(self):
        module, plan = _mutual_wait()
        error = _run_until_deadlock(module, plan, "event")
        cycle = error.diagnosis.suspected_cycle
        assert sorted(cycle) == ["alpha#w0", "beta#w0"]
        assert "suspected cycle" in str(error)

    def test_undersized_real_pipeline_fuzz(self):
        # The known-deadlocking real configuration: depth-0 FIFOs can
        # never be pushed.  Both engines must fail identically on the
        # compiled ks pipeline, not just on hand-built IR.
        spec = SMALL_KS
        module = compile_c(spec.source, spec.name)
        optimize_module(module)
        compiled = cgpa_compile(
            module, spec.accel_function, shapes=spec.shapes_for(module),
            policy=ReplicationPolicy.P1, n_workers=2,
        )
        errors = {}
        for engine in ENGINES:
            memory, globals_, args = setup_workload(compiled.module, spec)
            system = AcceleratorSystem(
                compiled.module, memory,
                channels=compiled.result.channels,
                global_addresses=globals_, engine=engine, fifo_depth=0,
            )
            with pytest.raises(DeadlockError) as info:
                system.run(spec.measure_entry, args)
            errors[engine] = info.value
        assert str(errors["event"]) == str(errors["lockstep"])
        assert str(errors["event"]) == str(errors["specialized"])
        assert errors["event"].diagnosis.blocked  # graph is populated
        assert "of depth 0)" in str(errors["event"])

    @pytest.mark.parametrize("seed", [11, 23])
    def test_injected_hang_diagnosed_identically(self, seed):
        # A seeded hang plan wedges a ks pipeline worker; both engines
        # must report the same watchdog diagnosis with the hung worker
        # as root cause.
        _, _, ctx = baseline("ks")
        plan = FaultPlan.generate(seed, "hang", ctx)
        assert plan.by_kind("worker_hang")
        messages = {}
        for engine in ENGINES:
            with pytest.raises(DeadlockError) as info:
                simulate_kernel("ks", engine, injector=FaultInjector(plan))
            messages[engine] = str(info.value)
            assert info.value.diagnosis.root_hang is not None
            assert "hung" in messages[engine]
        assert messages["event"] == messages["lockstep"]
        assert messages["event"] == messages["specialized"]


# -- graceful degradation: timing faults never change liveouts ------------------


class TestTimingFaultsPreserveLiveouts:
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    @pytest.mark.parametrize("seed", [101, 202])
    def test_liveouts_bit_identical(self, name, seed):
        base_sim, base_checksum, ctx = baseline(name)
        plan = FaultPlan.generate(seed, "timing", ctx)
        assert plan.timing_only
        sim, checksum = simulate_kernel(
            name, injector=FaultInjector(plan),
            max_cycles=base_sim.cycles * 64 + 10_000,
        )
        assert checksum == base_checksum
        assert sim.return_value == base_sim.return_value
        assert sim.invocations == base_sim.invocations
        # Faults cost cycles, never correctness.
        assert sim.cycles >= base_sim.cycles


# -- conservation check --------------------------------------------------------


def _uncount_pushes(monkeypatch):
    """A counter lie: ``FifoBuffer.push`` queues its value but not its count."""
    push = FifoBuffer.push

    def lying_push(self, index, value, cycle=0):
        push(self, index, value, cycle)
        self.stats.pushes -= 1

    monkeypatch.setattr(FifoBuffer, "push", lying_push)


def _small_ks_p1():
    return interned_pipeline(SMALL_KS, ReplicationPolicy.P1, 2)


class TestConservationCheck:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_counter_lie_is_caught_without_opting_in(self, engine, monkeypatch):
        _uncount_pushes(monkeypatch)
        with pytest.raises(InvariantViolationError) as info:
            run_hardware(SMALL_KS, "cgpa-p1", _small_ks_p1(),
                         DirectMappedCache(), engine=engine)
        checks = {v.check for v in info.value.violations}
        assert any("fifo value conservation" in c for c in checks)
        assert any("worker pushes == fifo pushes" in c for c in checks)

    def test_a_counter_lie_is_caught_in_a_sweep_shard(self, monkeypatch):
        # A failed run times nothing, so no sibling of the shard takes
        # its result: every point runs in full and is caught.
        _uncount_pushes(monkeypatch)
        points = [DesignPoint(n_workers=2, fifo_depth=depth, cache_lines=lines)
                  for depth in (4, 16) for lines in (128, 512)]
        results, derived = Evaluator(SMALL_KS).evaluate_structure(points)
        assert derived == 0
        for result in results:
            assert result.status == "error", result.point
            assert "worker pushes == fifo pushes" in result.error

    @pytest.mark.parametrize("engine", ENGINES)
    def test_watchdog_exits_check_and_chain(self, engine, monkeypatch):
        # A stuck run with a broken counter is an invariant violation,
        # chained from the watchdog's own error.
        _uncount_pushes(monkeypatch)
        module, plan = _overrun_producer()
        with pytest.raises(InvariantViolationError) as info:
            AcceleratorSystem(
                module, Memory(), channels=plan, engine=engine, fifo_depth=1
            ).run("parent", [])
        assert isinstance(info.value.__cause__, DeadlockError)
        with pytest.raises(InvariantViolationError) as info:
            run_hardware(SMALL_KS, "cgpa-p1", _small_ks_p1(),
                         DirectMappedCache(), engine=engine, max_cycles=500)
        assert isinstance(info.value.__cause__, CycleBudgetExceeded)

    def test_corrupted_state_reports_every_violation(self):
        module = Module("m")
        plan = ChannelPlan()
        plan.new_channel("c", I32, 0, 1)
        system = AcceleratorSystem(module, Memory(), channels=plan, fifo_depth=4)
        fifo = next(iter(system.fifos.values()))
        # Two independent lies: phantom pushes and an impossible occupancy
        # high-water mark.  The check must list both, not stop at one.
        fifo.stats.pushes = 5
        fifo.stats.max_occupancy = 9
        with pytest.raises(InvariantViolationError) as info:
            check_conservation(system, 100)
        violations = info.value.violations
        assert len(violations) >= 2
        checks = {v.check for v in violations}
        assert any("conservation" in c for c in checks)
        assert any("max-occupancy" in c for c in checks)
        assert "buf0:c" in str(info.value)
        assert "at cycle 100" in str(info.value)

    def test_negative_counter_detected(self):
        module = Module("m")
        plan = ChannelPlan()
        plan.new_channel("c", I32, 0, 1)
        system = AcceleratorSystem(module, Memory(), channels=plan)
        fifo = next(iter(system.fifos.values()))
        fifo.stats.full_stall_cycles = -3
        with pytest.raises(InvariantViolationError, match="non-negative"):
            check_conservation(system, 10)


# -- DSE evaluator: classification by exception type ----------------------------


class _StubCompiled:
    def full_signature(self, depth):
        return f"S-P-S/p1/stub/d{depth}"


class TestEvaluatorClassification:
    def _evaluator(self, monkeypatch, exc):
        evaluator = Evaluator(SMALL_KS)
        monkeypatch.setattr(evaluator, "compile", lambda point: _StubCompiled())

        def boom(point, compiled, cache):
            raise exc

        monkeypatch.setattr(evaluator, "_simulate", boom)
        return evaluator

    def test_deadlock_error_carries_diagnosis(self, monkeypatch):
        diagnosis = DeadlockDiagnosis(cycle=77)
        exc = DeadlockError("hardware deadlock at cycle 77: ...",
                            diagnosis=diagnosis)
        result = self._evaluator(monkeypatch, exc).evaluate(DesignPoint())
        assert result.status == "deadlock"
        assert result.diagnosis == diagnosis.format()
        assert "cycle 77" in result.diagnosis

    def test_budget_exceeded_is_timeout(self, monkeypatch):
        exc = CycleBudgetExceeded(1234, cycle=1235)
        result = self._evaluator(monkeypatch, exc).evaluate(DesignPoint())
        assert result.status == "timeout"
        assert "max_cycles=1234" in result.error
        assert result.diagnosis is None

    @pytest.mark.parametrize("message", [
        "hardware deadlock at cycle 3: stuck",
        "exceeded max_cycles=50",
        "bus exploded",
    ])
    def test_untyped_simulation_error_is_a_plain_error(
        self, monkeypatch, message
    ):
        # Classification is by exception type only: every deadlock and
        # budget failure in repro.hw is raised typed, so a plain
        # SimulationError is an error whatever its message says.
        result = self._evaluator(
            monkeypatch, SimulationError(message)
        ).evaluate(DesignPoint())
        assert result.status == "error"
        assert result.error == message
        assert result.signature == "S-P-S/p1/stub/d16"

    def test_result_dict_tolerates_pre_diagnosis_cache_entries(self):
        result = EvalResult(point=DesignPoint(), status="deadlock",
                            error="dead", diagnosis="full report")
        wire = result.to_dict()
        assert wire["diagnosis"] == "full report"
        assert EvalResult.from_dict(wire) == result
        legacy = dict(wire)
        del legacy["diagnosis"]
        restored = EvalResult.from_dict(legacy)
        assert restored.diagnosis is None
        assert restored.status == "deadlock"

    def test_result_dict_tolerates_future_schema_extra_keys(self):
        # Regression: a cache entry written by a *newer* schema carries
        # keys this build has never heard of; from_dict must drop them
        # instead of crashing the whole sweep with a TypeError.
        result = EvalResult(point=DesignPoint(), status="ok", cycles=123)
        wire = result.to_dict()
        wire["thermal_mw"] = 41.5
        wire["new_nested"] = {"a": [1, 2]}
        restored = EvalResult.from_dict(wire)
        assert restored == result
        assert restored.cycles == 123


# -- resilience sweep + CLI -----------------------------------------------------


class TestResilienceSweepAndCli:
    def test_sweep_is_deterministic(self):
        a = resilience_sweep(SMALL_KS, n_plans=2, seed=9)
        b = resilience_sweep(SMALL_KS, n_plans=2, seed=9)
        assert a.format() == b.format()
        assert a.to_dict() == b.to_dict()
        assert len(a.records) == 2 * len(PLAN_KINDS)
        assert a.timing_correct == 2

    def test_a_plan_that_breaks_conservation_is_an_invariant_violation(
        self, monkeypatch
    ):
        # Every fault-injected run starts with a phantom flushed value; the
        # fault-free baseline does not.  Hang plans end at the watchdog,
        # whose exit checks too.
        attach = FaultInjector.attach

        def lying_attach(self, system):
            attach(self, system)
            next(iter(system.fifos.values())).stats.flushed += 1

        monkeypatch.setattr(FaultInjector, "attach", lying_attach)
        report = resilience_sweep(SMALL_KS, n_plans=1, seed=0)
        assert [r.kind for r in report.records] == list(PLAN_KINDS)
        for record in report.records:
            assert record.outcome == "invariant-violation", record.kind
            assert "fifo value conservation" in record.diagnosis

    def test_interned_check_keeps_corruption_verdicts_and_report_bytes(
        self, monkeypatch
    ):
        # Gaussblur reports through memory, so a FifoCorruption that
        # reaches the output is caught by the checksum alone.
        spec = dataclasses.replace(
            KERNELS_BY_NAME["1D-Gaussblur"], setup_args=[6, 48]
        )
        checks = []
        monkeypatch.setattr(runner, "_CHECK_MEMO", {})
        monkeypatch.setattr(
            runner, "run_check",
            lambda *args: checks.append(run_check(*args)) or checks[-1],
        )
        interned = resilience_sweep(spec, n_plans=4, seed=2)
        # The reference: every plan set up and checked by the interpreter.
        monkeypatch.setattr(
            sweep_module, "run_hardware",
            functools.partial(
                run_hardware, workload=Workload(setup_workload, run_check)),
        )
        fresh = resilience_sweep(spec, n_plans=4, seed=2)
        assert json.dumps(interned.to_dict()) == json.dumps(fresh.to_dict())
        assert interned.format() == fresh.format()
        verdicts = {
            (r.outcome, r.detected) for r in interned.by_kind("corruption")
        }
        assert verdicts == {("corrupted-output", True), ("correct", False)}
        # Every corrupted image was scored by the interpreter, never by a
        # memo entry; the runs that left the oracle's image shared one.
        corrupted = sum(
            r.outcome == "corrupted-output" for r in interned.records)
        finished = sum(r.cycles is not None for r in interned.records)
        assert corrupted + 1 <= len(checks) < finished

    def test_faults_cli_smoke(self, capsys, tmp_path):
        rc = main(["faults", "ks", "--plans", "1", "--seed", "0",
                   "--store", str(tmp_path / "store")])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "Resilience sweep: ks (1 plans/class, seed 0)" in stdout
        # The full sweep (plans + outcomes) is the artifact under the
        # equivalent service request's key.
        key = JobRequest.make("faults", "ks", {"plans": 1, "seed": 0}).key
        data = ArtifactStore(tmp_path / "store").get(key)
        assert data["kernel"] == "ks"
        assert len(data["records"]) == len(PLAN_KINDS)

    def test_faults_cli_rejects_bad_plans(self):
        with pytest.raises(SystemExit):
            main(["faults", "ks", "--plans", "0"])

    def test_cli_budget_failure_is_one_line_exit_1(self, capsys):
        rc = main(["--kernel", "ks", "--max-cycles", "1000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: exceeded max_cycles=1000\n"

    def test_trace_cli_budget_failure_is_one_line_exit_1(self, capsys,
                                                         tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["trace", "ks", "--max-cycles", "500"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: exceeded max_cycles=500")
