"""Tests for the cycle-accurate FSM worker and accelerator system.

The strongest property: for any (sequential) function, the hardware
simulation must compute exactly what the functional interpreter computes —
only cycle counts may differ.
"""

import pytest

from repro.errors import SimulationError
from repro.frontend import compile_c
from repro.hw import AcceleratorSystem, DirectMappedCache, SpecializedWorker
from repro.hw.worker import NEVER, HwWorker
from repro.interp import Interpreter, Memory
from repro.telemetry.events import CycleCategory as C
from repro.transforms import optimize_module

PROGRAMS = [
    ("int f(int a, int b) { return (a * 3 + b) ^ (a - b); }", [17, 5]),
    ("double f(double x, int n) { double a = 1.0;"
     " for (int i = 0; i < n; i++) a = a * x + 0.25; return a; }", [1.5, 10]),
    ("int f(int n) { int s = 0;"
     " for (int i = 0; i < n; i++) { if (i % 3 == 0) s += i; else s -= 1; }"
     " return s; }", [50]),
    ("int helper(int x) { return x * x; }"
     "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += helper(i);"
     " return s; }", [12]),
    ("void* malloc(int n);"
     "int f(int n) {"
     "  int* a = (int*)malloc(n * sizeof(int));"
     "  for (int i = 0; i < n; i++) a[i] = i * 7;"
     "  int s = 0;"
     "  for (int i = 0; i < n; i++) s += a[i];"
     "  return s; }", [20]),
]


def run_both(source, args):
    ref_module = compile_c(source)
    optimize_module(ref_module)
    expected = Interpreter(ref_module).call("f", list(args))

    hw_module = compile_c(source)
    optimize_module(hw_module)
    from repro.interp import Memory
    system = AcceleratorSystem(hw_module, Memory())
    report = system.run("f", list(args))
    return expected, report


class TestFunctionalExactness:
    @pytest.mark.parametrize("source,args", PROGRAMS)
    def test_hw_matches_interpreter(self, source, args):
        expected, report = run_both(source, args)
        assert report.return_value == expected

    @pytest.mark.parametrize("source,args", PROGRAMS)
    def test_cycles_positive_and_bounded(self, source, args):
        _, report = run_both(source, args)
        total_ops = sum(
            sum(stats.ops_executed.values())
            for stats in report.worker_stats.values()
        )
        assert report.cycles > 0
        assert total_ops > 0
        # Sanity: an FSM can't take more than ~100 cycles per executed op
        # on these programs.
        assert report.cycles < 100 * total_ops


class TestTiming:
    def test_cache_misses_cost_cycles(self):
        source = (
            "void* malloc(int n);"
            "int f(int* p, int n) { int s = 0;"
            " for (int i = 0; i < n; i++) s += p[i * 64]; return s; }"
        )
        module = compile_c(source)
        optimize_module(module)
        from repro.interp import Memory
        mem = Memory()
        base = mem.malloc(64 * 256 * 4)

        fast = AcceleratorSystem(
            module, mem.clone(), cache=DirectMappedCache(miss_penalty=4)
        ).run("f", [base, 32])
        slow_module = compile_c(source)
        optimize_module(slow_module)
        slow = AcceleratorSystem(
            slow_module, mem.clone(), cache=DirectMappedCache(miss_penalty=64)
        ).run("f", [base, 32])
        # Note: each i*64 access is a distinct 256B-strided address ->
        # every access misses; higher penalty must cost many more cycles.
        assert slow.cycles > fast.cycles + 30 * 32

    def test_fp_longer_than_int(self):
        int_src = "int f(int a) { int s = a; for (int i = 0; i < 50; i++) s = s + 3; return s; }"
        fp_src = "double f(double a) { double s = a; for (int i = 0; i < 50; i++) s = s + 3.0; return s; }"
        _, int_rep = run_both(int_src, [1])
        _, fp_rep = run_both(fp_src, [1.0])
        assert fp_rep.cycles > int_rep.cycles

    def test_worker_stats_accumulate(self):
        _, report = run_both(PROGRAMS[4][0], PROGRAMS[4][1])
        stats = next(iter(report.worker_stats.values()))
        assert stats.loads == 20
        assert stats.stores == 20
        assert stats.mem_stall_cycles > 0
        assert stats.ops_executed["add"] > 0


class TestFaults:
    def test_deadlock_detected(self):
        # A task consuming from a channel nobody fills must be reported
        # as a deadlock, not hang.
        from repro.ir import (
            Channel, Consume, FunctionType, I32, IRBuilder, Module, VOID,
            ParallelFork, ParallelJoin,
        )
        from repro.pipeline.transform import TaskInfo
        from repro.pipeline.spec import StageKind
        from repro.interp import Memory
        from repro.ir.primitives import ChannelPlan

        m = Module("m")
        chan_plan = ChannelPlan()
        chan = chan_plan.new_channel("never", I32, 0, 1)
        task = m.new_function("task", FunctionType(VOID, []), [])
        tb = IRBuilder(task.new_block("entry"))
        tb.block.append(Consume(chan, I32))
        tb.ret()
        task.task_info = TaskInfo(0, 0, StageKind.SEQUENTIAL, 1)
        parent = m.new_function("parent", FunctionType(VOID, []), [])
        pb = IRBuilder(parent.new_block("entry"))
        pb.block.append(ParallelFork(0, task, [], None))
        pb.block.append(ParallelJoin(0))
        pb.ret()
        system = AcceleratorSystem(m, Memory(), channels=chan_plan)
        with pytest.raises(SimulationError, match="deadlock"):
            system.run("parent", [])

    def test_max_cycles_guard(self):
        source = "int f(void) { int i = 0; while (1) { i++; } return i; }"
        module = compile_c(source)
        # Note: no optimize (the infinite loop survives either way).
        from repro.interp import Memory
        system = AcceleratorSystem(module, Memory(), max_cycles=5000)
        with pytest.raises(SimulationError, match="max_cycles"):
            system.run("f", [])

    def test_undefined_external_call_rejected(self):
        module = compile_c("int g(int x); int f(void) { return g(1); }")
        from repro.interp import Memory
        system = AcceleratorSystem(module, Memory())
        with pytest.raises(SimulationError):
            system.run("f", [])


class TestFifoIntegrationTiming:
    def test_full_fifo_stalls_producer(self):
        # Producer pushes N values; consumer drains slowly (long fp chain
        # per value): with depth 2 the producer must stall.
        from repro.kernels import HASH_INDEXING
        from repro.harness import run_backend
        deep = run_backend(HASH_INDEXING, "cgpa-p1", fifo_depth=16)
        shallow = run_backend(HASH_INDEXING, "cgpa-p1", fifo_depth=1)
        assert shallow.cycles >= deep.cycles
        stalls_shallow, stalls_deep = (
            sum(s.fifo_full_stall_cycles + s.fifo_empty_stall_cycles
                for s in run.sim.worker_stats.values())
            for run in (shallow, deep)
        )
        assert stalls_shallow > stalls_deep


class _StubScheduler:
    """Records the wait registrations an ``EventScheduler`` would get."""

    def __init__(self):
        self.waits = []

    def wait_on_fifo(self, worker, fifo):
        self.waits.append(("fifo", fifo))

    def wait_on_join(self, worker, loop_id):
        self.waits.append(("join", loop_id))


class TestRetire:
    """``HwWorker._retire`` is the timing rule: one category and one cycle
    in; one counter, the wake-up and the wait registration out."""

    CYCLE = 10
    QUEUE = object()  # stands in for the FifoBuffer the worker blocked on
    #: (category, worker state, counter, wait_category or None for
    #: "untouched", next_due, registration under an event scheduler)
    TABLE = [
        (C.COMPUTE, {}, "active_cycles", None, CYCLE + 1, None),
        (C.COMPUTE, {"done": True}, "active_cycles", C.IDLE, NEVER, None),
        (C.CACHE, {"_waiting_until": 40}, "mem_stall_cycles", C.CACHE, 40, None),
        (C.CACHE, {"_waiting_until": 3}, "mem_stall_cycles", C.CACHE,
         CYCLE + 1, None),
        (C.FIFO_FULL, {"_blocked_fifo": QUEUE}, "fifo_full_stall_cycles",
         C.FIFO_FULL, NEVER, ("fifo", QUEUE)),
        (C.FIFO_FULL, {"_blocked_fifo": QUEUE, "_blocked_until": 25},
         "fifo_full_stall_cycles", C.FIFO_FULL, 25, None),
        (C.FIFO_EMPTY, {"_blocked_fifo": QUEUE}, "fifo_empty_stall_cycles",
         C.FIFO_EMPTY, NEVER, ("fifo", QUEUE)),
        (C.JOIN, {"_blocked_loop": 7}, "join_stall_cycles", C.JOIN, NEVER,
         ("join", 7)),
        (C.IDLE, {"done": True}, "idle_cycles", C.IDLE, NEVER, None),
        (C.IDLE, {"hung": True}, "idle_cycles", C.IDLE, NEVER, None),
        (C.IDLE, {"start_cycle": 30}, "idle_cycles", C.IDLE, 30, None),
    ]

    @pytest.mark.parametrize("scheduled", [False, True], ids=["lockstep", "event"])
    @pytest.mark.parametrize(
        "category, state, counter, wait_category, next_due, registered", TABLE,
        ids=[f"{row[0].value}-{'-'.join(row[1]) or 'plain'}" for row in TABLE],
    )
    def test_one_category_one_cycle(
        self, category, state, counter, wait_category, next_due, registered,
        scheduled,
    ):
        module = compile_c("int f(int a) { return a; }")
        system = AcceleratorSystem(module, Memory(), engine="lockstep")
        worker = HwWorker("w", module.get_function("f"), [1], system)
        worker.engine = _StubScheduler() if scheduled else None
        worker.wait_category = untouched = object()
        for name, value in state.items():
            setattr(worker, name, value)
        before = worker.stats.to_dict()

        worker._retire(self.CYCLE, category)

        after = worker.stats.to_dict()
        assert after.pop(counter) == before.pop(counter) + 1
        assert after == before  # no other counter moved
        assert worker.last_category is category
        assert worker.synced_until == self.CYCLE + 1
        assert worker.wait_category is (
            untouched if wait_category is None else wait_category
        )
        assert worker.next_due == next_due
        if scheduled:
            assert worker.engine.waits == ([registered] if registered else [])

    def test_a_run_of_compute_cycles_retires_at_once(self):
        # The specialized worker's run-ahead closes k COMPUTE cycles in
        # one ``_close``, rendered from the same rule as ``_retire``.
        module = compile_c("int f(int a) { return a; }")
        system = AcceleratorSystem(module, Memory(), engine="specialized")
        worker = SpecializedWorker("w", module.get_function("f"), [1], system)
        before = worker.stats.to_dict()
        worker._close(self.CYCLE, 5, "entry", 0)
        after = worker.stats.to_dict()
        assert after.pop("active_cycles") == before.pop("active_cycles") + 5
        assert after == before
        assert worker.synced_until == worker.next_due == self.CYCLE + 5
        assert worker.last_category is C.COMPUTE
