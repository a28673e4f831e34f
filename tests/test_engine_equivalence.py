"""Differential tests: event-driven engine vs the lockstep oracle.

The event-driven engine (:mod:`repro.hw.engine`) skips the clock between
worker wake events; the lockstep engine ticks every worker every cycle.
The contract is *bit-identical* ``SimReport``\\ s — cycles, per-worker
stall breakdowns, cache and FIFO statistics, return values — on every
workload, including the fuzzed random pipelines, the private-cache mode
and traced runs (where the span cover must also match exactly).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import RegionShapes, Shape
from repro.errors import SimulationError
from repro.frontend import compile_c
from repro.harness.runner import setup_workload
from repro.hw import (
    AcceleratorSystem,
    DirectMappedCache,
    HwWorker,
    MemoryTraceSink,
)
from repro.hw.worker import MAX_CALL_DEPTH
from repro.interp import Interpreter, Memory, malloc_site_table
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy, cgpa_compile
from repro.transforms import optimize_module

KERNEL_NAMES = [spec.name for spec in ALL_KERNELS]

#: cgpa_compile is engine-independent; compile each kernel once per session.
_COMPILED: dict[str, object] = {}


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


#: Cache geometries the kernels run under: the paper default, and a
#: stall-heavy memory system where blocked workers (CACHE arming, long
#: skipped spans) dominate the run.
CACHES = {
    "default": {},
    "stall-heavy": {"miss_penalty": 200, "n_lines": 16},
}


def simulate_kernel(
    name: str, engine: str, sink=None, cache="default", **system_kwargs
):
    spec = KERNELS_BY_NAME[name]
    compiled = compiled_kernel(name)
    memory, globals_, args = setup_workload(compiled.module, spec)
    system = AcceleratorSystem(
        compiled.module, memory,
        channels=compiled.result.channels,
        cache=DirectMappedCache(ports=8, **CACHES[cache]),
        global_addresses=globals_,
        sink=sink,
        engine=engine,
        **system_kwargs,
    )
    return system.run(spec.measure_entry, args)


def assert_reports_identical(event, lockstep):
    assert event.cycles == lockstep.cycles
    assert event.return_value == lockstep.return_value
    assert event.invocations == lockstep.invocations
    assert event.worker_stats == lockstep.worker_stats
    assert event.cache_stats == lockstep.cache_stats
    assert event.fifo_stats == lockstep.fifo_stats
    assert event.stall_breakdown == lockstep.stall_breakdown


class TestPaperKernels:
    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_bit_identical_reports(self, name, cache):
        lockstep = simulate_kernel(name, "lockstep", cache=cache)
        for engine in ("event", "specialized"):
            assert_reports_identical(
                simulate_kernel(name, engine, cache=cache), lockstep
            )

    def test_private_caches_identical(self):
        event = simulate_kernel("ks", "event", private_caches=True)
        lockstep = simulate_kernel("ks", "lockstep", private_caches=True)
        assert_reports_identical(event, lockstep)
        # The aggregated report must see the slice traffic (satellite fix:
        # it used to read only the idle shared cache).
        assert event.cache_stats.accesses > 0

    def test_traced_run_identical_spans(self):
        event_sink, lockstep_sink = MemoryTraceSink(), MemoryTraceSink()
        event = simulate_kernel("ks", "event", sink=event_sink)
        lockstep = simulate_kernel("ks", "lockstep", sink=lockstep_sink)
        assert_reports_identical(event, lockstep)
        # Span covers agree per worker, cycle for cycle...
        assert event_sink.total_cycles == lockstep_sink.total_cycles
        for worker in lockstep_sink.worker_names:
            assert event_sink.spans_for(worker) == lockstep_sink.spans_for(
                worker
            ), worker
        # ...and after the canonicalising flush, in identical global order.
        assert event_sink.spans == lockstep_sink.spans
        # Conservation still holds on the skip-ahead trace.
        assert event_sink.breakdown() == event.stall_breakdown
        for counts in event_sink.breakdown().values():
            assert sum(counts.values()) == event.cycles


FUZZ_SOURCE = """
void* malloc(int m);
unsigned out_acc;
int kernel(int* a, int* b, int n) {{
    int acc = 0;
    for (int i = 0; i < n; i++) {{
        {update}
    }}
    return acc;
}}
int run(int n) {{
    int* a = (int*)malloc(64 * sizeof(int));
    int* b = (int*)malloc(64 * sizeof(int));
    for (int k = 0; k < 64; k++) {{ a[k] = (k * 37 + 11) & 63; b[k] = 0; }}
    int r = kernel(a, b, n);
    out_acc = (unsigned)r;
    return r;
}}
"""

FUZZ_UPDATES = [
    "b[i] = a[i] * 3; acc += b[i] & 15;",
    "if (a[i] > 20) acc += a[i] - b[i]; else b[i] = acc;",
    "acc += a[i] + b[i]; b[i] = acc & 255;",
    "int t = 0; for (int j = 0; j < 3; j++) t += a[(i + j) & 31]; acc += t;",
]


class TestFuzzedPipelines:
    """Random pipelines through both engines, full-report equality."""

    @given(
        st.sampled_from(FUZZ_UPDATES),
        st.integers(min_value=0, max_value=24),
        st.sampled_from(["p1", "p2", "none"]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 16]),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_event_equals_lockstep(self, update, n, policy, workers, depth):
        source = FUZZ_SOURCE.format(update=update)
        module = compile_c(source)
        optimize_module(module)
        shapes = RegionShapes()
        for site in malloc_site_table(module):
            shapes.declare(site, Shape.LIST)
        compiled = cgpa_compile(
            module, "kernel", shapes=shapes,
            policy=ReplicationPolicy(policy), n_workers=workers,
        )
        reports = {}
        for engine in ("event", "lockstep", "specialized"):
            system = AcceleratorSystem(
                compiled.module, Memory(),
                channels=compiled.result.channels,
                engine=engine, fifo_depth=depth,
            )
            reports[engine] = system.run("run", [n])
        assert_reports_identical(reports["event"], reports["lockstep"])
        assert_reports_identical(reports["specialized"], reports["lockstep"])
        # And both still compute what the software interpreter computes.
        ref_module = compile_c(source)
        optimize_module(ref_module)
        expected = Interpreter(ref_module).call("run", [n])
        assert reports["event"].return_value == expected


DOWN = "int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }"


class TestCallDepth:
    """A call chain under the hardware call depth runs to the same report
    on every engine; one past it raises the same typed error at the same
    call on every engine (the specialized one's ``yield from`` chain would
    otherwise overflow Python's stack first)."""

    def test_under_the_bound_every_engine_agrees(self):
        module = compile_c(DOWN)
        optimize_module(module)
        depth = MAX_CALL_DEPTH - 1  # frames: down(depth) ... down(0)
        reports = {
            engine: AcceleratorSystem(module, Memory(), engine=engine).run("down", [depth])
            for engine in ("event", "lockstep", "specialized")
        }
        assert reports["event"].return_value == depth
        assert_reports_identical(reports["event"], reports["lockstep"])
        assert_reports_identical(reports["specialized"], reports["lockstep"])

    @pytest.mark.parametrize("depth", [MAX_CALL_DEPTH, 3000])
    def test_past_the_bound_every_engine_raises_the_same_error(self, depth):
        module = compile_c(DOWN)
        optimize_module(module)
        errors = set()
        for engine in ("event", "lockstep", "specialized"):
            with pytest.raises(SimulationError) as info:
                AcceleratorSystem(module, Memory(), engine=engine).run("down", [depth])
            errors.add(str(info.value))
        assert errors == {
            f"worker down#top: call to @down exceeds call depth {MAX_CALL_DEPTH}"
        }


class TestEngineBehaviour:
    def test_unknown_engine_rejected(self):
        module = compile_c("int f(void) { return 1; }")
        with pytest.raises(ValueError, match="unknown engine"):
            AcceleratorSystem(module, Memory(), engine="warp")

    def test_exact_deadlock_detection(self):
        # A consumer on a never-filled channel: the event engine reports
        # "no runnable worker and no pending event" immediately instead of
        # waiting out the lockstep engine's 16k-cycle progress poll.
        from repro.ir import (
            Consume, FunctionType, I32, IRBuilder, Module, VOID,
            ParallelFork, ParallelJoin,
        )
        from repro.ir.primitives import ChannelPlan
        from repro.pipeline.spec import StageKind
        from repro.pipeline.transform import TaskInfo

        m = Module("m")
        plan = ChannelPlan()
        chan = plan.new_channel("never", I32, 0, 1)
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
        system = AcceleratorSystem(m, Memory(), channels=plan, engine="event")
        with pytest.raises(SimulationError, match="no pending event"):
            system.run("parent", [])

    def test_direct_worker_has_return_value(self):
        # Satellite fix: return_value is initialised in __init__, so a
        # directly-constructed worker (no system.run) can always be read.
        module = compile_c("int f(void) { return 7; }")
        system = AcceleratorSystem(module, Memory())
        worker = HwWorker("solo", module.get_function("f"), [], system)
        assert worker.return_value is None

    def test_max_cycles_guard_matches_lockstep(self):
        source = "int f(void) { int i = 0; while (1) { i++; } return i; }"
        for engine in ("event", "lockstep"):
            module = compile_c(source)
            system = AcceleratorSystem(
                module, Memory(), max_cycles=5000, engine=engine
            )
            with pytest.raises(SimulationError, match="max_cycles=5000"):
                system.run("f", [])
