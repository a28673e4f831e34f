"""One ``optimize_module`` call is final, and the PDG refuses what it skips.

mem2reg runs inside the fold/DCE/CFG fixpoint, so a local whose address
is only taken by another promotable local (``int* pi = &i``) is promoted
in the round after that local is.  A second call must change nothing on
the nine kernels and on three probes that keep loop state behind a
pointer to a local; the probes must partition as they did when the
pipeline driver re-ran the optimiser, and the pipelines must compute
the sequential result.
"""

import pytest

from repro.analysis import (
    LoopInfo,
    PointsTo,
    ProgramDependenceGraph,
    RegionShapes,
    Shape,
    promotable_allocas,
)
from repro.errors import AnalysisError, CgpaError
from repro.frontend import compile_c
from repro.interp import Interpreter, malloc_site_table
from repro.ir import print_module
from repro.kernels import ALL_KERNELS
from repro.pipeline import ReplicationPolicy, cgpa_compile, run_transformed
from repro.transforms import optimize_module

from tests.test_pipeline_transform import KERNELS

PTR_TO_IV = """
void* malloc(int m);
int kernel(int* a, int n) {
    int s = 0;
    int i = 0;
    int* pi = &i;
    for (*pi = 0; *pi < n; *pi = *pi + 1) s += a[*pi] * 3 + 1;
    return s;
}
unsigned out;
void main(void) {
    int* a = (int*)malloc(64 * sizeof(int));
    for (int k = 0; k < 64; k++) a[k] = k * 5 - 7;
    out = (unsigned)kernel(a, 40);
}
"""

PTR_TO_ACC = """
void* malloc(int m);
int kernel(int* a, int n) {
    int s = 0;
    int* ps = &s;
    for (int i = 0; i < n; i++) *ps = *ps + a[i] * a[i];
    return s;
}
unsigned out;
void main(void) {
    int* a = (int*)malloc(64 * sizeof(int));
    for (int k = 0; k < 64; k++) a[k] = k * 3 - 11;
    out = (unsigned)kernel(a, 40);
}
"""

PTR_TO_PTR = """
void* malloc(int m);
int kernel(int* a, int n) {
    int s = 0;
    int* p = a;
    int** pp = &p;
    for (int i = 0; i < n; i++) { s += **pp * 7; *pp = *pp + 1; }
    return s;
}
unsigned out;
void main(void) {
    int* a = (int*)malloc(64 * sizeof(int));
    for (int k = 0; k < 64; k++) a[k] = k * 9 + 2;
    out = (unsigned)kernel(a, 40);
}
"""

PROBES = {"ptr_to_iv": PTR_TO_IV, "ptr_to_acc": PTR_TO_ACC, "ptr_to_ptr": PTR_TO_PTR}

#: probe -> policy -> signature, as the driver's second optimiser call
#: left them.
PROBE_SIGNATURES = {
    name: {"p1": "P-S", "p2": "S", "none": "S-P-S"} for name in PROBES
}


def optimised(source: str):
    module = compile_c(source)
    optimize_module(module)
    return module


SOURCES = [
    pytest.param(spec.source, id=spec.name) for spec in ALL_KERNELS
] + [pytest.param(source, id=name) for name, source in PROBES.items()]


class TestOneCallIsFinal:
    @pytest.mark.parametrize("source", SOURCES)
    def test_a_second_call_changes_nothing(self, source):
        module = optimised(source)
        once = print_module(module)
        optimize_module(module)
        assert print_module(module) == once

    def test_a_chain_deeper_than_the_round_bound_is_refused_typed(self):
        # Each level of pointer-to-local costs one round; past the bound
        # the slot stays in memory and the PDG says so instead of
        # building a pipeline over it.
        depth = 12
        decls = ["int v0 = 0;"] + [
            f"int{'*' * k} v{k} = &v{k - 1};" for k in range(1, depth)
        ]
        deref = "*" * (depth - 1)
        source = (
            "int kernel(int* a, int n) {\n" + "\n".join(decls)
            + f"\nfor (int i = 0; i < n; i++) {deref}v{depth - 1} += a[i];\n"
            + "return v0;\n}\n"
        )
        module = optimised(source)
        function = module.get_function("kernel")
        assert promotable_allocas(function)
        with pytest.raises(CgpaError, match="run optimize_module"):
            cgpa_compile(module, "kernel")


class TestProbes:
    @pytest.mark.parametrize("policy", list(ReplicationPolicy), ids=lambda p: p.value)
    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_partition_and_result(self, name, policy):
        reference = Interpreter(optimised(PROBES[name]))
        reference.call("main", [])
        compiled = cgpa_compile(
            optimised(PROBES[name]), "kernel", shapes=RegionShapes(),
            policy=policy,
        )
        assert compiled.signature == PROBE_SIGNATURES[name][policy.value]
        _, memory, _ = run_transformed(compiled.module, "main", [])
        assert memory.snapshot() == reference.memory.snapshot()


class TestMemoryFormIsRefused:
    """Every route to a partition builds a PDG, and the PDG of a function
    that still keeps scalars in stack slots is a typed error.  (Without
    it the same IR partitions as memory traffic, silently: reduction
    becomes S-P-S under p1, not P-S.)"""

    @pytest.mark.parametrize("name,source,list_shapes", KERNELS)
    def test_unoptimised_module_raises(self, name, source, list_shapes):
        module = compile_c(source)
        shapes = RegionShapes()
        if list_shapes:
            for site in malloc_site_table(module):
                shapes.declare(site, Shape.LIST)
        loop = LoopInfo(module.get_function("kernel")).top_level()[0]
        with pytest.raises(AnalysisError, match=r"@kernel .*run optimize_module"):
            ProgramDependenceGraph(loop, PointsTo(module), shapes)
        for policy in ReplicationPolicy:
            with pytest.raises(AnalysisError, match="@kernel"):
                cgpa_compile(module, "kernel", shapes=shapes, policy=policy)
