"""Tests for accelerating several loops of one function (distinct loop ids).

This exercises the part of Table 1's semantics single-loop tests cannot:
``parallel_fork``/``parallel_join`` groups for *different* LoopIDs in one
parent, and FIFO identity across two independent channel plans.
"""

import pytest

from repro.analysis import RegionShapes
from repro.frontend import compile_c
from repro.hw import AcceleratorSystem, DirectMappedCache
from repro.interp import Interpreter
from repro.ir import I32, ParallelFork, ParallelJoin
from repro.ir.primitives import ChannelPlan
from repro.pipeline import cgpa_compile_all, run_transformed
from repro.transforms import optimize_module

TWO_LOOP_SOURCE = """
void* malloc(int m);
unsigned out_sum;
int kernel(int* a, int* b, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) b[i] = a[i] * 3 + 1;
    for (int j = 0; j < n; j++) s += b[j] ^ a[j];
    return s;
}
void run(int n) {
    int* a = (int*)malloc(64 * sizeof(int));
    int* b = (int*)malloc(64 * sizeof(int));
    for (int k = 0; k < 64; k++) { a[k] = k * 7; b[k] = 0; }
    out_sum = (unsigned)kernel(a, b, n);
}
"""


def optimised():
    module = compile_c(TWO_LOOP_SOURCE)
    optimize_module(module)
    return module


@pytest.fixture()
def reference():
    module = optimised()
    interp = Interpreter(module)
    interp.call("run", [40])
    return interp


class TestMultiLoop:
    def test_both_loops_pipelined(self):
        module = optimised()
        compiled = cgpa_compile_all(module, "kernel", shapes=RegionShapes())
        assert len(compiled) == 2
        assert {c.result.loop_id for c in compiled} == {0, 1}
        # Both pipelines have a parallel stage (the loops are affine).
        for c in compiled:
            assert "P" in c.signature

    def test_parent_has_two_fork_groups(self):
        module = optimised()
        compiled = cgpa_compile_all(module, "kernel", shapes=RegionShapes())
        parent = module.get_function("kernel")
        fork_ids = {i.loop_id for i in parent.instructions()
                    if isinstance(i, ParallelFork)}
        join_ids = {i.loop_id for i in parent.instructions()
                    if isinstance(i, ParallelJoin)}
        assert fork_ids == join_ids == {0, 1}

    def test_functional_equivalence(self, reference):
        module = optimised()
        cgpa_compile_all(module, "kernel", shapes=RegionShapes())
        _, memory, _ = run_transformed(module, "run", [40])
        assert memory.snapshot() == reference.memory.snapshot()

    def test_hardware_simulation(self, reference):
        module = optimised()
        compiled = cgpa_compile_all(module, "kernel", shapes=RegionShapes())
        merged = ChannelPlan()
        for c in compiled:
            merged.channels.extend(c.result.channels)
        setup = Interpreter(module)
        system = AcceleratorSystem(
            module, setup.memory, channels=merged,
            cache=DirectMappedCache(ports=8),
            global_addresses=setup.global_addresses,
        )
        report = system.run("run", [40])
        assert report.invocations == 2
        out = setup.memory.load(setup.global_addresses["out_sum"], I32)
        expected = reference.memory.load(
            reference.global_addresses["out_sum"], I32
        )
        assert out == expected

    def test_distinct_channel_plans_do_not_collide(self):
        module = optimised()
        compiled = cgpa_compile_all(module, "kernel", shapes=RegionShapes())
        plans = [c.result.channels for c in compiled]
        if all(len(p) > 0 for p in plans):
            # Channel ids restart per loop; object identity must differ.
            a = plans[0].channels[0]
            b = plans[1].channels[0]
            assert a is not b
