"""Cross-subsystem kernel conformance matrix.

Every kernel in :data:`repro.kernels.ALL_KERNELS` must flow unchanged
through every backend of the repo — this file is the single place that
enforces it.  For *each* registered kernel (paper five plus the second
wave) it asserts, with zero kernel-specific skips:

1. **oracle equality** — the accelerator simulation returns the same
   value and checksum as the sequential interpreter;
2. **engine bit-identity** — lockstep, event and specialized engines
   produce bit-identical ``SimReport``\\ s, and ``run_backend`` with no
   engine named equals the lockstep reference on every hardware backend;
3. **RTL** — every emitted worker module lints clean and co-simulates
   bit-identically to the interpreter oracle (liveouts, FIFO traffic,
   final memory image);
4. **DSE totality** — the evaluator captures failures as statuses and
   never raises, for good and known-bad design points alike;
5. **fault resilience** — timing faults stay liveout-correct, injected
   hangs are diagnosed by the watchdog, corruption is detected or
   consistently masked;
6. **observability** — a ``sim`` run envelope round-trips bit-exactly
   through its JSON encoding.

Adding kernel #10 to the registry automatically buys this whole matrix;
a kernel that cannot pass one of these rows does not belong in
``ALL_KERNELS``.  Workloads run at the co-simulation smoke scale
(:data:`repro.vsim.cosim.SMOKE_SETUP_ARGS`) so the matrix stays cheap.
"""

import dataclasses
import json

import pytest

from repro.dse import DesignPoint, Evaluator
from repro.dse.evaluate import STATUSES
from repro.faults.sweep import resilience_sweep
from repro.frontend import compile_c
from repro.harness.build import compile_kernel, compile_module
from repro.harness.runner import run_backend, run_hardware, setup_workload
from repro.hw import DEFAULT_ENGINE, AcceleratorSystem, DirectMappedCache
from repro.interp import Interpreter
from repro.kernels import ALL_KERNELS, KernelSpec
from repro.obs import RunEnvelope
from repro.obs.emit import sim_envelope
from repro.pipeline import ReplicationPolicy, cgpa_compile
from repro.rtl import generate_verilog_hierarchy
from repro.transforms import optimize_module
from repro.vsim import lint_verilog
from repro.vsim.cosim import SMOKE_SETUP_ARGS, run_rtl_cosim

KERNEL_IDS = [spec.name for spec in ALL_KERNELS]

ENGINES = ("lockstep", "event", "specialized")


def small(spec: KernelSpec) -> KernelSpec:
    """The kernel at co-simulation smoke scale."""
    return dataclasses.replace(spec, setup_args=SMOKE_SETUP_ARGS[spec.name])


#: cgpa_compile is engine- and workload-independent; one compile per
#: (kernel, policy) for the whole module.
_COMPILED: dict = {}


def compiled(spec: KernelSpec, policy=ReplicationPolicy.P1):
    key = (spec.name, policy)
    if key not in _COMPILED:
        module = compile_c(spec.source, spec.name)
        optimize_module(module)
        _COMPILED[key] = cgpa_compile(
            module, spec.accel_function, shapes=spec.shapes_for(module),
            policy=policy,
        )
    return _COMPILED[key]


def simulate(spec: KernelSpec, engine: str):
    """One accelerator run of the smoke-scale kernel; returns SimReport."""
    pipeline = compiled(spec)
    memory, globals_, args = setup_workload(pipeline.module, small(spec))
    system = AcceleratorSystem(
        pipeline.module, memory,
        channels=pipeline.result.channels,
        cache=DirectMappedCache(ports=8),
        global_addresses=globals_,
        engine=engine,
    )
    report = system.run(spec.measure_entry, args)
    checker = Interpreter(
        pipeline.module, memory, global_addresses=globals_
    )
    return report, checker.call(spec.check_function, [])


def assert_reports_identical(a, b):
    assert a.cycles == b.cycles
    assert a.return_value == b.return_value
    assert a.invocations == b.invocations
    assert a.worker_stats == b.worker_stats
    assert a.cache_stats == b.cache_stats
    assert a.fifo_stats == b.fifo_stats
    assert a.stall_breakdown == b.stall_breakdown


def test_smoke_scale_covers_every_kernel():
    # The matrix's workload table must never lag the registry.
    assert set(SMOKE_SETUP_ARGS) == {s.name for s in ALL_KERNELS}


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=KERNEL_IDS)
class TestOracleEquality:
    """Row 1: accelerator simulation vs the sequential interpreter."""

    def test_return_and_checksum_match_interpreter(self, spec):
        module = compile_c(spec.source, spec.name)
        optimize_module(module)
        memory, globals_, args = setup_workload(module, small(spec))
        oracle = Interpreter(module, memory, global_addresses=globals_)
        expected_return = oracle.call(spec.measure_entry, args)
        expected_checksum = oracle.call(spec.check_function, [])

        report, checksum = simulate(spec, "event")
        assert report.return_value == expected_return
        assert checksum == expected_checksum


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=KERNEL_IDS)
class TestEngineBitIdentity:
    """Row 2: all three simulation engines, one SimReport."""

    def test_three_engines_bit_identical(self, spec):
        reports = {}
        checksums = set()
        for engine in ENGINES:
            reports[engine], checksum = simulate(spec, engine)
            checksums.add(checksum)
        assert len(checksums) == 1
        assert_reports_identical(reports["event"], reports["lockstep"])
        assert_reports_identical(reports["specialized"], reports["lockstep"])

    @pytest.mark.parametrize("backend", ["legup", "cgpa-p1", "cgpa-none"])
    def test_default_engine_equals_the_lockstep_reference(self, spec, backend):
        # What ``run_backend`` runs (the default engine) is what every
        # number in the repo comes from; it must be the oracle's.
        spec = small(spec)
        got = run_backend(spec, backend)
        design = (
            compile_module(spec) if backend == "legup"
            else compile_kernel(spec, ReplicationPolicy(backend[len("cgpa-"):]), 4)
        )
        want = run_hardware(
            spec, backend, design, DirectMappedCache(ports=8), engine="lockstep"
        )
        assert_reports_identical(got.sim, want.sim)
        assert got.sim.to_dict() == want.sim.to_dict()
        assert (got.cycles, got.aluts, got.energy_uj, got.power_mw) == (
            want.cycles, want.aluts, want.energy_uj, want.power_mw)
        assert (got.checksum, got.return_value) == (want.checksum, want.return_value)


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=KERNEL_IDS)
class TestRtl:
    """Row 3: the emitted Verilog is lintable and bit-identical in vsim."""

    def test_worker_modules_lint_clean(self, spec):
        pipeline = compiled(spec)
        for task in pipeline.result.tasks:
            issues = lint_verilog(generate_verilog_hierarchy(task))
            assert issues == [], f"{task.name}: {issues}"
        parent_issues = lint_verilog(
            generate_verilog_hierarchy(pipeline.result.parent)
        )
        assert parent_issues == []

    def test_cosim_bit_identical_to_oracle(self, spec):
        report = run_rtl_cosim(spec.name)
        assert report.ok, report.format()
        assert report.rounds, "oracle recorded no fork/join rounds"
        for rnd in report.rounds:
            assert rnd.memory_diff is None, rnd.memory_diff
            for inst in rnd.instances:
                for diff in inst.liveouts:
                    assert diff.oracle_bits == diff.rtl_bits, (
                        f"{inst.tag} liveout[{diff.liveout_id}]"
                    )


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=KERNEL_IDS)
class TestDseTotality:
    """Row 4: the evaluator is total over good and hostile points."""

    POINTS = [
        DesignPoint(policy="p1", n_workers=2, fifo_depth=8),
        DesignPoint(policy="none", n_workers=1, fifo_depth=4),
        # Known-bad: a zero-depth FIFO deadlocks the pipeline.  The
        # evaluator must capture that as a status, not an exception.
        DesignPoint(policy="p1", n_workers=2, fifo_depth=0),
    ]

    def test_every_point_yields_a_classified_result(self, spec):
        evaluator = Evaluator(small(spec), max_cycles=2_000_000)
        results = [evaluator.evaluate(point) for point in self.POINTS]
        for result in results:
            assert result.status in STATUSES
        assert results[0].ok and results[0].cycles > 0
        assert results[1].ok
        assert not results[2].ok  # fifo_depth=0 never simulates cleanly


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=KERNEL_IDS)
class TestFaultResilience:
    """Row 5: the fault taxonomy holds for every kernel."""

    def test_sweep_outcomes_match_fault_classes(self, spec):
        report = resilience_sweep(small(spec), n_plans=2, seed=3)
        assert report.baseline_cycles > 0
        timing = report.by_kind("timing")
        assert timing and all(r.outcome == "correct" for r in timing), (
            "timing faults must degrade gracefully, never corrupt liveouts"
        )
        hangs = report.by_kind("hang")
        assert hangs
        for r in hangs:
            if r.triggered:
                assert r.detected, (
                    "every triggered hang must be diagnosed by the watchdog"
                )
            else:
                # An injection point past the end of the (smoke-scale)
                # run never fires; the run must then be unaffected.
                assert r.outcome == "correct", r.outcome
        for r in report.by_kind("corruption"):
            if r.triggered and not r.detected:
                # Silently masked flips must still be liveout-correct.
                assert r.outcome == "correct", r.outcome


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=KERNEL_IDS)
class TestEnvelopeRoundTrip:
    """Row 6: the run-record spine carries every kernel bit-exactly."""

    def test_sim_envelope_json_round_trip(self, spec):
        result = run_backend(small(spec), "cgpa-p1")
        envelope = sim_envelope(
            result.sim, kernel=spec.name, engine="event",
            backend="cgpa-p1", area=result.area, power=result.power,
        )
        encoded = json.dumps(envelope.to_dict(), sort_keys=True)
        decoded = RunEnvelope.from_dict(json.loads(encoded))
        assert json.dumps(decoded.to_dict(), sort_keys=True) == encoded
        assert decoded.kernel == spec.name
        assert decoded.cycles == result.cycles


class TestDefaultEngineInEnvelopes:
    """What a run records when nobody names an engine."""

    def test_default_faults_sweep(self, tmp_path):
        from repro.harness.__main__ import main
        from repro.obs.query import load_envelopes

        assert main(["faults", "ks", "--plans", "1", "--store", str(tmp_path)]) == 0
        (envelope,) = load_envelopes(tmp_path).filter(kind="faults")
        assert envelope.engine == DEFAULT_ENGINE == "specialized"

    def test_default_simulate_service_job(self):
        from repro.obs.emit import job_envelope
        from repro.service.contracts import JobRequest
        from repro.service.jobs import execute

        request = JobRequest.make("simulate", "ks", options={"n_workers": 2})
        artifact = execute(request)
        envelope = job_envelope(request, artifact)
        envelope.validate()
        assert envelope.engine == artifact["engine"] == DEFAULT_ENGINE
        assert artifact["status"] == "ok"
