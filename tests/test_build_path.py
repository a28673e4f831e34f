"""The one build path (repro.harness.build) and its process-wide intern.

``compile_kernel`` must be a pure re-spelling of the sequence every call
site used to hand-write (kept here as the reference), and
``interned_pipeline`` must be safe to share: same object for equal
content, a miss for any textual difference, bounded, read-only under
every consumer, and race-free across service worker threads.
"""

import dataclasses
import json
import threading

import pytest

from repro.dse import DesignPoint, Evaluator
from repro.faults.sweep import resilience_sweep
from repro.fleet import interned_pipeline
from repro.frontend import compile_c
from repro.harness.__main__ import main
from repro.harness import build
from repro.harness.build import compile_kernel, compile_module
from repro.hw import ENGINES
from repro.ir import print_module
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy, cgpa_compile
from repro.rtl import generate_verilog_hierarchy
from repro.transforms import optimize_module
from repro.vsim import cosim
from repro.vsim.cosim import SMOKE_SETUP_ARGS, run_rtl_cosim

KERNEL_POLICIES = [
    pytest.param(spec, policy, id=f"{spec.name}-{policy.name.lower()}")
    for spec in ALL_KERNELS
    for policy in ReplicationPolicy
    if policy is not ReplicationPolicy.P2 or spec.supports_p2
]

SMOKE_SPECS = [
    pytest.param(
        dataclasses.replace(spec, setup_args=SMOKE_SETUP_ARGS[spec.name]),
        id=spec.name,
    )
    for spec in ALL_KERNELS
]

SMALL_KS = dataclasses.replace(
    KERNELS_BY_NAME["ks"], setup_args=SMOKE_SETUP_ARGS["ks"]
)


def _reference_compile(spec, policy, n_workers):
    """The hand-sequenced flow the eleven call sites used to carry."""
    module = compile_c(spec.source, spec.name)
    optimize_module(module)
    shapes = spec.shapes_for(module)
    return cgpa_compile(
        module, spec.accel_function, shapes=shapes, policy=policy,
        n_workers=n_workers,
    )


def _verilog(compiled) -> str:
    return "\n".join(
        generate_verilog_hierarchy(fn)
        for fn in [*compiled.result.tasks, compiled.result.parent]
    )


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty pipeline memo for tests that count entries or race on a
    miss; the process's real memo is restored afterwards."""
    memo: dict = {}
    monkeypatch.setattr(build, "_PIPELINE_MEMO", memo)
    return memo


class TestCompileKernel:
    @pytest.mark.parametrize("spec,policy", KERNEL_POLICIES)
    def test_same_ir_signature_and_verilog_as_the_hand_sequence(
        self, spec, policy
    ):
        ours = compile_kernel(spec, policy, 2)
        reference = _reference_compile(spec, policy, 2)
        assert print_module(ours.module) == print_module(reference.module)
        assert ours.full_signature(8) == reference.full_signature(8)
        assert _verilog(ours) == _verilog(reference)

    @pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
    def test_plain_twin_is_the_optimised_untransformed_module(self, spec):
        reference = compile_c(spec.source, spec.name)
        optimize_module(reference)
        assert print_module(compile_module(spec)) == print_module(reference)

    def test_defaults_are_the_paper_configuration(self):
        compiled = compile_kernel(KERNELS_BY_NAME["ks"])
        assert compiled.full_signature() == _reference_compile(
            KERNELS_BY_NAME["ks"], ReplicationPolicy.P1, 4
        ).full_signature(16)


class TestInternedPipeline:
    def test_equal_content_returns_the_same_object(self, fresh_memo):
        twin = dataclasses.replace(SMALL_KS, source=str(SMALL_KS.source))
        first = interned_pipeline(SMALL_KS, ReplicationPolicy.P1, 2)
        assert interned_pipeline(twin, ReplicationPolicy.P1, 2) is first
        # The workload scale is not something compile_kernel reads.
        scaled = dataclasses.replace(SMALL_KS, setup_args=[12, 12])
        assert interned_pipeline(scaled, ReplicationPolicy.P1, 2) is first
        assert len(fresh_memo) == 1

    def test_every_compile_input_is_in_the_key(self, fresh_memo):
        base = interned_pipeline(SMALL_KS, ReplicationPolicy.P1, 2)
        # benchmarks/layers forces its cold passes with exactly this: a
        # trailing comment the compiler never sees.
        commented = dataclasses.replace(
            SMALL_KS, source=SMALL_KS.source + "\n// cold pass 1\n"
        )
        variants = [
            (commented, ReplicationPolicy.P1, 2),
            (SMALL_KS, ReplicationPolicy.NONE, 2),
            (SMALL_KS, ReplicationPolicy.P1, 4),
            (dataclasses.replace(SMALL_KS, list_shape_sites=[]),
             ReplicationPolicy.P1, 2),
            (dataclasses.replace(SMALL_KS, name="ks-renamed"),
             ReplicationPolicy.P1, 2),
        ]
        seen = {id(base)}
        for args in variants:
            seen.add(id(interned_pipeline(*args)))
        assert len(seen) == len(variants) + 1 == len(fresh_memo)

    def test_memo_is_bounded(self, fresh_memo, monkeypatch):
        monkeypatch.setattr(build, "_MEMO_ENTRIES", 3)
        for n in range(8):
            variant = dataclasses.replace(
                SMALL_KS, source=SMALL_KS.source + f"\n// variant {n}\n"
            )
            interned_pipeline(variant, ReplicationPolicy.P1, 2)
            assert len(fresh_memo) <= 3
        # The newest entry always survives the wholesale drop.
        assert interned_pipeline(variant, ReplicationPolicy.P1, 2) is (
            next(reversed(fresh_memo.values()))
        )

    @pytest.mark.parametrize("spec", SMOKE_SPECS)
    def test_consumers_leave_the_interned_module_untouched(
        self, spec, monkeypatch
    ):
        compiled = interned_pipeline(spec, ReplicationPolicy.P1, 2)
        before = print_module(compiled.module)
        channels = [dataclasses.replace(c) for c in compiled.result.channels]

        evaluator = Evaluator(spec, engine="specialized")
        for depth in (16, 2):  # one pipeline, whatever depth it runs at
            point = DesignPoint(n_workers=2, fifo_depth=depth)
            assert evaluator.compile(point) is compiled
            assert evaluator.evaluate(point).ok
        report = resilience_sweep(spec, n_plans=1, n_workers=2)
        assert report.timing_correct == 1
        assert _verilog(compiled)
        # Co-simulation compiles privately; hand it the shared pipeline
        # to show it, too, only reads.
        monkeypatch.setattr(cosim, "compile_kernel", lambda *a: compiled)
        assert run_rtl_cosim(spec, setup_args=spec.setup_args).ok

        assert print_module(compiled.module) == before
        assert list(compiled.result.channels) == channels
        assert interned_pipeline(spec, ReplicationPolicy.P1, 2) is compiled

    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_threads_on_one_compile_key_match_the_serial_bytes(
        self, fresh_memo, engine
    ):
        # Two depths of one compile key: the threads share one pipeline
        # object and each binds its own depth on its own simulator.
        points = [DesignPoint(n_workers=2, fifo_depth=d) for d in (4, 16)]
        assert points[0].compile_key == points[1].compile_key

        def evaluate(point) -> str:
            result = Evaluator(SMALL_KS, engine=engine).evaluate(point)
            return json.dumps(result.to_dict(), sort_keys=True)

        serial = [evaluate(point) for point in points]
        assert serial[0] != serial[1]
        fresh_memo.clear()  # both threads start from the same miss
        barrier = threading.Barrier(2)
        answers: dict[int, str] = {}

        def worker(index: int) -> None:
            barrier.wait(timeout=60)
            answers[index] = evaluate(points[index])

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert [answers[0], answers[1]] == serial
        assert len(fresh_memo) == 1


class TestDepthIsBoundLate:
    @pytest.mark.parametrize("spec,policy", KERNEL_POLICIES)
    def test_shared_pipeline_scores_as_one_compiled_for_the_point_alone(
        self, spec, policy, fresh_memo
    ):
        spec = dataclasses.replace(spec, setup_args=SMOKE_SETUP_ARGS[spec.name])
        evaluator = Evaluator(spec)
        for workers in (1, 2, 4):
            points = [
                DesignPoint(policy=policy.value, n_workers=workers, fifo_depth=d)
                for d in (1, 4, 16)
            ]
            fresh_memo.clear()
            shared = [evaluator.evaluate(point).to_dict() for point in points]
            assert len(fresh_memo) == 1
            for point, result in zip(points, shared):
                fresh_memo.clear()  # a pipeline no other depth has run on
                assert evaluator.evaluate(point).to_dict() == result
                assert result["signature"].endswith(
                    f"/{policy.value}/w{workers}/d{point.fifo_depth}")


class TestDefaultPathHonoursSimulatorFlags:
    """``--engine``/``--max-cycles`` used to be parsed and then dropped
    unless ``--kernel`` was given."""

    @pytest.mark.parametrize("argv", [[], ["--scalability"]],
                             ids=["all-kernels", "scalability"])
    def test_cycle_budget_ends_in_one_line_error_exit_1(self, argv, capsys):
        rc = main([*argv, "--max-cycles", "10", "--engine", "lockstep"])
        assert rc == 1
        assert capsys.readouterr().err == "error: exceeded max_cycles=10\n"
