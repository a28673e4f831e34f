"""Pipeline transform tests: functional equivalence and generated structure.

The central property (the paper's "all Verilog designs passed the
verification"): for every kernel and every replication policy, running the
transformed program (parent + fork/join + tasks over FIFO channels) must
produce exactly the same return value and the same memory image as the
sequential original.
"""

import pytest

from repro.analysis import RegionShapes, Shape
from repro.frontend import compile_c
from repro.interp import Interpreter, malloc_site_table
from repro.ir import (
    Consume,
    Phi,
    Produce,
    ProduceBroadcast,
    StoreLiveout,
    verify_module,
)
from repro.pipeline import (
    ReplicationPolicy,
    cgpa_compile,
    run_transformed,
)
from repro.transforms import optimize_module

from tests.test_analysis_pdg import (
    CALL_SOURCE,
    EM3D_SOURCE,
    REDUCTION_SOURCE,
    SEQUENTIAL_STORE_SOURCE,
)

KERNELS = [
    ("em3d", EM3D_SOURCE, True),
    ("reduction", REDUCTION_SOURCE, False),
    ("histogram", SEQUENTIAL_STORE_SOURCE, False),
    ("purecall", CALL_SOURCE, False),
]

POLICIES = [ReplicationPolicy.P1, ReplicationPolicy.P2, ReplicationPolicy.NONE]


def reference_run(source):
    module = compile_c(source)
    optimize_module(module)
    interp = Interpreter(module)
    value = interp.call("main", [])
    return value, interp.memory.snapshot()


def compiled(source, policy, list_shapes, n_workers=4):
    module = compile_c(source)
    optimize_module(module)
    shapes = RegionShapes()
    if list_shapes:
        for site in malloc_site_table(module):
            shapes.declare(site, Shape.LIST)
    return cgpa_compile(
        module, "kernel", shapes=shapes, policy=policy, n_workers=n_workers
    )


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("name,source,list_shapes", KERNELS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_value_and_memory_match(self, name, source, list_shapes, policy):
        ref_value, ref_memory = reference_run(source)
        cp = compiled(source, policy, list_shapes)
        verify_module(cp.module)
        value, memory, _ = run_transformed(cp.module, "main", [])
        assert value == ref_value
        assert memory.snapshot() == ref_memory

    @pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
    def test_worker_count_sweep(self, n_workers):
        ref_value, ref_memory = reference_run(EM3D_SOURCE)
        cp = compiled(EM3D_SOURCE, ReplicationPolicy.P1, True, n_workers)
        value, memory, _ = run_transformed(cp.module, "main", [])
        assert value == ref_value
        assert memory.snapshot() == ref_memory

    def test_non_power_of_two_workers(self):
        ref_value, ref_memory = reference_run(EM3D_SOURCE)
        cp = compiled(EM3D_SOURCE, ReplicationPolicy.P1, True, n_workers=3)
        value, memory, _ = run_transformed(cp.module, "main", [])
        assert value == ref_value
        assert memory.snapshot() == ref_memory


class TestGeneratedStructure:
    def test_em3d_matches_figure_1e(self):
        """The generated em3d tasks mirror the paper's Figure 1(e)."""
        cp = compiled(EM3D_SOURCE, ReplicationPolicy.P1, True)
        assert cp.signature == "S-P"
        stage0, stage1 = cp.result.tasks

        # Stage 0 (sequential traversal): produces the node pointer
        # round-robin and broadcasts the exit condition.
        produces = [i for i in stage0.instructions() if isinstance(i, Produce)]
        broadcasts = [
            i for i in stage0.instructions() if isinstance(i, ProduceBroadcast)
        ]
        assert len(produces) == 1
        assert produces[0].value.type.is_pointer
        assert len(broadcasts) == 1
        assert broadcasts[0].value.type.bits == 1  # the end token

        # Stage 1 (parallel): consumes the pointer only in its own
        # iterations (one consume), the end token in both bodies (two).
        consumes = [i for i in stage1.instructions() if isinstance(i, Consume)]
        pointer_consumes = [c for c in consumes if c.type.is_pointer]
        token_consumes = [c for c in consumes if c.type.is_integer]
        assert len(pointer_consumes) == 1
        assert len(token_consumes) == 2

        # Worker id argument and the it & MASK dispatch.
        assert stage1.args[-1].name == "worker_id"
        opcodes = {i.opcode for i in stage1.instructions()}
        assert "and" in opcodes  # it & (W-1), the paper's MASK form

    def test_task_info_attached(self):
        cp = compiled(EM3D_SOURCE, ReplicationPolicy.P1, True)
        info0 = cp.result.tasks[0].task_info
        info1 = cp.result.tasks[1].task_info
        assert not info0.is_parallel and info0.n_workers == 1
        assert info1.is_parallel and info1.n_workers == 4

    def test_channels_flow_forward(self):
        cp = compiled(SEQUENTIAL_STORE_SOURCE, ReplicationPolicy.P1, False)
        for binding in cp.result.bindings:
            assert binding.producer_stage < binding.consumer_stage

    def test_parallel_to_sequential_consume_is_round_robin(self):
        # Histogram is P-S: the sequential stage must pop worker FIFOs
        # round-robin (an explicit selector on the consume).
        cp = compiled(SEQUENTIAL_STORE_SOURCE, ReplicationPolicy.P1, False)
        assert cp.signature == "P-S"
        seq_task = cp.result.tasks[-1]
        consumes = [i for i in seq_task.instructions() if isinstance(i, Consume)]
        assert consumes
        assert all(c.worker_select is not None for c in consumes)

    def test_liveout_stored_and_retrieved(self):
        cp = compiled(REDUCTION_SOURCE, ReplicationPolicy.P1, False)
        stores = [
            i
            for task in cp.result.tasks
            for i in task.instructions()
            if isinstance(i, StoreLiveout)
        ]
        assert len(stores) >= 1
        from repro.ir import RetrieveLiveout
        parent = cp.result.parent
        retrieves = [
            i for i in parent.instructions() if isinstance(i, RetrieveLiveout)
        ]
        assert len(retrieves) == len(cp.result.liveout_ids)

    def test_parent_loop_replaced_by_fork_join(self):
        from repro.ir import ParallelFork, ParallelJoin
        cp = compiled(EM3D_SOURCE, ReplicationPolicy.P1, True)
        parent = cp.result.parent
        forks = [i for i in parent.instructions() if isinstance(i, ParallelFork)]
        joins = [i for i in parent.instructions() if isinstance(i, ParallelJoin)]
        assert len(forks) == 1 + 4  # one sequential worker + four parallel
        assert len(joins) == 1
        # The original loop is gone from the parent.
        from repro.analysis import LoopInfo
        assert not LoopInfo(parent).loops

    def test_broadcast_channels_marked(self):
        cp = compiled(EM3D_SOURCE, ReplicationPolicy.P1, True)
        broadcast = [b for b in cp.result.bindings if b.broadcast]
        per_worker = [b for b in cp.result.bindings if not b.broadcast]
        assert len(broadcast) == 1  # the end token
        assert len(per_worker) == 1  # the node pointer

    def test_p2_has_no_channels_for_em3d(self):
        # Replicating the traversal removes all cross-stage traffic:
        # a single parallel stage with redundant fetching (Fig. 1(b)).
        cp = compiled(EM3D_SOURCE, ReplicationPolicy.P2, True)
        assert cp.signature == "P"
        assert len(cp.result.bindings) == 0

    def test_dual_bodies_share_dispatch_phis(self):
        cp = compiled(EM3D_SOURCE, ReplicationPolicy.P1, True)
        stage1 = cp.result.tasks[1]
        dispatch = next(b for b in stage1.blocks if b.name == "dispatch")
        phis = dispatch.phis()
        assert phis  # at least the iteration counter
        # Each phi has one entry arm plus one arm per (reachable) latch.
        for phi in phis:
            assert len(phi.incoming_blocks) >= 2
