"""Tests for the execution profiler (hotspot identification + SCC weights)."""

from repro.analysis import LoopInfo
from repro.frontend import compile_c
from repro.interp import profile_call
from repro.transforms import optimize_module


class TestProfile:
    def test_instruction_counts(self):
        module = compile_c(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
        )
        optimize_module(module)
        profile = profile_call(module, "f", [10])
        f = module.get_function("f")
        adds = [i for i in f.instructions() if i.opcode == "add"]
        assert adds
        # Each add in the loop body executes once per iteration.
        for add in adds:
            assert profile.count(add) == 10

    def test_block_counts_follow_trip_count(self):
        module = compile_c(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
        )
        optimize_module(module)
        profile = profile_call(module, "f", [7])
        f = module.get_function("f")
        body = next(b for b in f.blocks if b.name.startswith("for.body"))
        header = next(b for b in f.blocks if b.name.startswith("for.cond"))
        assert profile.block_counts[id(body)] == 7
        assert profile.block_counts[id(header)] == 8  # +1 exit evaluation

    def test_edge_counts(self):
        module = compile_c(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
        )
        optimize_module(module)
        profile = profile_call(module, "f", [5])
        f = module.get_function("f")
        header = next(b for b in f.blocks if b.name.startswith("for.cond"))
        body = next(b for b in f.blocks if b.name.startswith("for.body"))
        assert profile.edge_counts[(id(header), id(body))] == 5

    def test_function_weight(self):
        module = compile_c(
            "int helper(int x) { return x * x; }"
            "int f(int n) { int s = 0;"
            " for (int i = 0; i < n; i++) s += helper(i); return s; }"
        )
        optimize_module(module)
        profile = profile_call(module, "f", [20])
        helper = module.get_function("helper")
        assert sum(profile.count(inst) for inst in helper.instructions()) > 0

    def test_return_value_captured(self):
        module = compile_c("int f(int a) { return a + 1; }")
        optimize_module(module)
        profile = profile_call(module, "f", [41])
        assert profile.return_value == 42

    def test_hottest_loop_selection_in_driver(self):
        # Two top-level loops: profiling must pick the hot one.
        source = """
        void* malloc(int n);
        int kernel(int* a, int cold_n, int hot_n) {
            int s = 0;
            for (int i = 0; i < cold_n; i++) s += a[i];
            for (int j = 0; j < hot_n; j++) s += a[j & 7] * 3;
            return s;
        }
        void driver(void) { kernel((int*)malloc(64), 2, 100); }
        """
        from repro.pipeline import cgpa_compile
        module = compile_c(source)
        optimize_module(module)
        compiled = cgpa_compile(
            module, "kernel", profile=profile_call(module, "driver", []),
        )
        # The selected loop must be the one whose body contains the mul.
        # (compiled.loop's blocks are consumed by the parent rewrite, so
        # inspect the PDG's retained instruction nodes.)
        opcodes = {i.opcode for i in compiled.pdg.nodes}
        assert "mul" in opcodes

    def test_scc_weights_from_profile(self):
        from repro.analysis import LoopInfo, PointsTo, ProgramDependenceGraph
        source = """
        void* malloc(int n);
        int kernel(int* a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }
        void driver(void) { kernel((int*)malloc(400), 50); }
        """
        module = compile_c(source)
        optimize_module(module)
        profile = profile_call(module, "driver", [])
        loop = LoopInfo(module.get_function("kernel")).top_level()[0]
        pdg = ProgramDependenceGraph(loop, PointsTo(module), profile=profile)
        # Dynamic weights reflect ~50 executions, not static size.
        assert max(scc.weight for scc in pdg.sccs) >= 50
