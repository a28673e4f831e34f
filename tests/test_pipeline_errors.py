"""Error-path tests: unsupported shapes must fail loudly, not corrupt."""

import pytest

from repro.analysis import LoopInfo, PointsTo, ProgramDependenceGraph
from repro.errors import CgpaError, TransformError
from repro.frontend import compile_c
from repro.pipeline import cgpa_compile, partition_loop, transform_loop
from repro.transforms import optimize_module


class TestTransformErrors:
    def test_multi_exit_target_loop_rejected(self):
        # A break that jumps past the normal exit gives the loop two exit
        # target blocks; the parent rewrite refuses (documented limit).
        source = """
        void* malloc(int m);
        int kernel(int* a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (a[i] == 99) { s = -1; break; }
                s += a[i];
            }
            if (s < 0) return 0;
            return s;
        }
        void driver(void) { kernel((int*)malloc(64), 8); }
        """
        module = compile_c(source)
        optimize_module(module)
        fn = module.get_function("kernel")
        loop = LoopInfo(fn).top_level()[0]
        pdg = ProgramDependenceGraph(loop, PointsTo(module))
        spec = partition_loop(pdg)
        # Either the two exit targets or the value-merging exit phi is
        # diagnosed; both are documented limits, and neither may silently
        # generate a wrong pipeline.
        with pytest.raises(TransformError,
                           match="single loop exit|exit phi"):
            transform_loop(module, spec)

    def test_loopless_kernel_rejected(self):
        module = compile_c("int kernel(int a) { return a + 1; }")
        optimize_module(module)
        with pytest.raises(CgpaError, match="no loops"):
            cgpa_compile(module, "kernel")

    def test_transform_without_parent_rewrite_keeps_original(self):
        source = """
        void* malloc(int m);
        int kernel(int* a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }
        void driver(void) { kernel((int*)malloc(64), 8); }
        """
        module = compile_c(source)
        optimize_module(module)
        compiled = cgpa_compile(module, "kernel", rewrite_parent=False)
        # The original loop must still be intact and executable.
        from repro.interp import Interpreter, Memory
        interp = Interpreter(compiled.module)
        base = interp.memory.malloc(64)
        for i in range(8):
            from repro.ir import I32
            interp.memory.store(base + 4 * i, I32, i)
        assert interp.call("kernel", [base, 8]) == sum(range(8))

    def test_task_names_unique_across_loops(self):
        source = """
        void* malloc(int m);
        int kernel(int* a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }
        void driver(void) { kernel((int*)malloc(64), 8); }
        """
        module = compile_c(source)
        optimize_module(module)
        fn = module.get_function("kernel")
        loop = LoopInfo(fn).top_level()[0]
        pdg = ProgramDependenceGraph(loop, PointsTo(module))
        spec = partition_loop(pdg)
        transform_loop(module, spec, loop_id=0, rewrite_parent=False)
        # A second transform with the same loop id collides on task names.
        from repro.errors import IRError
        with pytest.raises(IRError, match="duplicate function"):
            transform_loop(module, spec, loop_id=0, rewrite_parent=False)


class TestPartitionDegenerate:
    def test_fully_sequential_loop_single_stage(self):
        # A pure pointer-chasing accumulation has no parallel section.
        source = """
        typedef struct n { int v; struct n* next; } n_t;
        void* malloc(int m);
        n_t* g_head;
        int kernel(n_t* p) {
            int s = 0;
            for ( ; p; p = p->next) s = s * 31 + p->v;
            return s;
        }
        void driver(void) { kernel(g_head); }
        """
        module = compile_c(source)
        optimize_module(module)
        fn = module.get_function("kernel")
        loop = LoopInfo(fn).top_level()[0]
        pdg = ProgramDependenceGraph(loop, PointsTo(module))
        spec = partition_loop(pdg)
        # Everything is carried; whatever comes out must be legal, and
        # a degenerate single-S pipeline is acceptable.
        assert spec.signature in ("S", "S-P", "P-S", "S-P-S", "P")

    def test_empty_parallel_weight_reported(self):
        source = """
        int kernel(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s = s * 3 + 1;
            return s;
        }
        void driver(void) { kernel(5); }
        """
        module = compile_c(source)
        optimize_module(module)
        fn = module.get_function("kernel")
        loop = LoopInfo(fn).top_level()[0]
        pdg = ProgramDependenceGraph(loop, PointsTo(module))
        spec = partition_loop(pdg)
        text = spec.describe()
        assert "pipeline" in text
