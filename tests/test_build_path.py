"""The one build path (repro.harness.build) and its process-wide intern.

``compile_kernel`` must be a pure re-spelling of the sequence every call
site used to hand-write (kept here as the reference), and
``interned_pipeline`` must be safe to share: same object for equal
content, a miss for any textual difference, bounded, read-only under
every consumer, and race-free across service worker threads.

``PINNED`` holds digests of what the build path produces for every
design of the ``compile-emit`` benchmark workload (nine kernels x
{p1, none, p2 where Table 2 lists one} x {1, 2, 4} workers) and of the
nine plain optimised modules.  They are not regenerated from this
checkout: a new value comes only from a checkout whose compiler is known
good, ``PYTHONPATH=<that checkout>/src python -c "import
tests.test_build_path as t; print(t.compute_digests())"`` run from the
repository root.
"""

import dataclasses
import hashlib
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


#: design -> sha256[:16] of (IR, full signature, Verilog); '<kernel>/plain'
#: is the optimised untransformed module alone.
PINNED = {
    "K-means/plain": "9556f371da0dffaa",
    "K-means/p1/w1": "459488a1a921bc0f",
    "K-means/p1/w2": "e00f5a02334138f7",
    "K-means/p1/w4": "5236bba9c7044480",
    "K-means/none/w1": "c67e76749b2027b1",
    "K-means/none/w2": "b88a5abffb628be8",
    "K-means/none/w4": "64479351598d0c92",
    "Hash-indexing/plain": "6c1a3a71500a19f3",
    "Hash-indexing/p1/w1": "2e99b353949dcf41",
    "Hash-indexing/p1/w2": "b74bc91f0f3c4dd8",
    "Hash-indexing/p1/w4": "db3777d45fbb61a3",
    "Hash-indexing/none/w1": "c5bd0304de4f7a77",
    "Hash-indexing/none/w2": "76019df44e73636a",
    "Hash-indexing/none/w4": "20e03b697912a4a1",
    "ks/plain": "eaae917f53c1e1b0",
    "ks/p1/w1": "6555fbbe4c91b3f7",
    "ks/p1/w2": "22d19cdf2abda62b",
    "ks/p1/w4": "418cac1d6e8fa100",
    "ks/none/w1": "2013b1518e6c41ed",
    "ks/none/w2": "87d85c3792e933f6",
    "ks/none/w4": "583a0f27c631d4e9",
    "em3d/plain": "8f0811b29b6d8d2d",
    "em3d/p1/w1": "a02397ca80b308f8",
    "em3d/p1/w2": "7b6b4a93001887e2",
    "em3d/p1/w4": "982dd9e6ece88be4",
    "em3d/p2/w1": "809c97e9aeb24f45",
    "em3d/p2/w2": "e0299c967bcaa468",
    "em3d/p2/w4": "93cf8a3525a520a1",
    "em3d/none/w1": "0cabbfa7b7d220d7",
    "em3d/none/w2": "310080e4ba15e502",
    "em3d/none/w4": "6f4f2f6f379dacfc",
    "1D-Gaussblur/plain": "0122a103e51e5eeb",
    "1D-Gaussblur/p1/w1": "3cad37dc8cfba661",
    "1D-Gaussblur/p1/w2": "0515258e3aa0fc03",
    "1D-Gaussblur/p1/w4": "a4321d6b3dddea34",
    "1D-Gaussblur/p2/w1": "61aae3634d62d790",
    "1D-Gaussblur/p2/w2": "fd02223c86193c07",
    "1D-Gaussblur/p2/w4": "801b3d4eb53e1326",
    "1D-Gaussblur/none/w1": "3b380c1bce51b03b",
    "1D-Gaussblur/none/w2": "8a0f68a929944ba6",
    "1D-Gaussblur/none/w4": "04408ff2dfc72954",
    "bfs/plain": "b964d7244f28f9c5",
    "bfs/p1/w1": "a087454576bd261c",
    "bfs/p1/w2": "a56fb453c0824677",
    "bfs/p1/w4": "6bb1cfa1252e0c07",
    "bfs/none/w1": "6cee334f6e810c0c",
    "bfs/none/w2": "9951d9ab7403f246",
    "bfs/none/w4": "ca095f1f842adfcb",
    "hash-join/plain": "d346a122bea735a2",
    "hash-join/p1/w1": "006d2519e9f97e18",
    "hash-join/p1/w2": "3d24456e7748e08c",
    "hash-join/p1/w4": "75a767c307b34812",
    "hash-join/none/w1": "9a0376f5d955bba9",
    "hash-join/none/w2": "c73a99b35e036433",
    "hash-join/none/w4": "9eadf8d05490aa6f",
    "spmv/plain": "c3260f7b920ff1c6",
    "spmv/p1/w1": "c21b114b79e6d8f3",
    "spmv/p1/w2": "3d82aee96ff4427d",
    "spmv/p1/w4": "f6f15ed92aa47058",
    "spmv/p2/w1": "4b5795a2f6ac269b",
    "spmv/p2/w2": "5b29363cdc35621e",
    "spmv/p2/w4": "6faeb23303e6aff1",
    "spmv/none/w1": "3043315a14c6f173",
    "spmv/none/w2": "219900d9fd6f77ef",
    "spmv/none/w4": "8542b1105a8f6d7f",
    "top-k/plain": "f12e0668a8499309",
    "top-k/p1/w1": "34d1cf78f4add86d",
    "top-k/p1/w2": "4588675278c27852",
    "top-k/p1/w4": "081d6863d7fa264a",
    "top-k/p2/w1": "3cfeb5ab8cf465bf",
    "top-k/p2/w2": "4c986134107a0907",
    "top-k/p2/w4": "339ef1dbeb5030f0",
    "top-k/none/w1": "258c371df8f24423",
    "top-k/none/w2": "1dba94f9d6d4795f",
    "top-k/none/w4": "e68b4aa8bdc7f23f",
}

PINNED_WORKERS = (1, 2, 4)


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def design_digest(spec, policy, n_workers) -> str:
    """sha256[:16] of the transformed IR, the full signature and the
    Verilog hierarchy of every task and the parent."""
    compiled = compile_kernel(spec, policy, n_workers)
    return _digest(
        print_module(compiled.module), compiled.full_signature(),
        _verilog(compiled),
    )


def compute_digests() -> dict:
    digests = {}
    for spec in ALL_KERNELS:
        digests[f"{spec.name}/plain"] = _digest(print_module(compile_module(spec)))
        for policy in ReplicationPolicy:
            if policy is ReplicationPolicy.P2 and not spec.supports_p2:
                continue
            for n_workers in PINNED_WORKERS:
                key = f"{spec.name}/{policy.value}/w{n_workers}"
                digests[key] = design_digest(spec, policy, n_workers)
    return digests


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


    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_compile_digests(self, key):
        name, policy, *workers = key.split("/")
        spec = KERNELS_BY_NAME[name]
        if policy == "plain":
            digest = _digest(print_module(compile_module(spec)))
        else:
            n_workers = int(workers[0][1:])
            digest = design_digest(spec, ReplicationPolicy(policy), n_workers)
        assert digest == PINNED[key]


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
    """``--max-cycles`` used to be parsed and then dropped unless
    ``--kernel`` was given."""

    @pytest.mark.parametrize("argv", [[], ["--scalability"]],
                             ids=["all-kernels", "scalability"])
    def test_cycle_budget_ends_in_one_line_error_exit_1(self, argv, capsys):
        rc = main([*argv, "--max-cycles", "10"])
        assert rc == 1
        assert capsys.readouterr().err == "error: exceeded max_cycles=10\n"
