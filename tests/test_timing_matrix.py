"""One run per timing: the specialized engine must be exact at every timing.

A sweep derives a point only from an ``ok`` run of the same design and
timing; every other timing (FIFO depth, cache lines, ports, private
caches, miss penalty) is simulated in full on the specialized engine.
The other differential suites hold that engine to the event engine and
the lockstep oracle at the default timing; this one holds it there over
a matrix of timings, worker counts and hand-built structures that share
state between workers, and pins what a sweep runs and derives.
Exactness is the contract: reports are compared field for field, with
no tolerance.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import RegionShapes, Shape
from repro.dse import ConfigSpace, Evaluator, Explorer, GridStrategy
from repro.fleet import interned_pipeline
from repro.frontend import compile_c
from repro.harness.runner import run_hardware
from repro.hw import AcceleratorSystem, DirectMappedCache, SpecializedWorker
from repro.interp import Memory, malloc_site_table
from repro.ir import (
    Consume,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    ParallelFork,
    ParallelJoin,
    PointerType,
    Produce,
    VOID,
)
from repro.ir.primitives import ChannelPlan
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy, cgpa_compile
from repro.pipeline.spec import StageKind
from repro.pipeline.transform import TaskInfo
from repro.telemetry.events import MemoryTraceSink
from repro.transforms import optimize_module
from repro.vsim.cosim import SMOKE_SETUP_ARGS

from tests.test_pipeline_fuzz import (
    LINKED_LIST_TEMPLATE,
    LIST_UPDATES,
    kernel_source,
)
from tests.test_specialized_engine import count_resumes

#: (fifo depth, cache lines, ports, private caches, miss penalty): nine
#: rows covering every pair of values of depth 1/4/16, lines 16/128/512,
#: ports 1/8, shared/private and miss penalty 7/200.
TIMINGS = [
    (1, 16, 1, False, 7),
    (1, 128, 8, True, 200),
    (4, 512, 1, False, 200),
    (16, 512, 8, True, 7),
    (4, 16, 8, True, 7),
    (16, 128, 1, False, 7),
    (16, 16, 1, True, 200),
    (1, 512, 8, False, 7),
    (4, 128, 1, False, 7),
]

KERNEL_POLICIES = [
    (spec.name, policy)
    for spec in ALL_KERNELS
    for policy in ["p1", "none"] + (["p2"] if spec.supports_p2 else [])
]

SWEEP_SPACE = dict(
    policies=["p1", "none"], n_workers=[2, 4],
    fifo_depths=[4, 16], cache_lines=[128, 512],
)


def small(name: str):
    return dataclasses.replace(
        KERNELS_BY_NAME[name], setup_args=SMOKE_SETUP_ARGS[name]
    )


def run_point(spec, policy, workers, timing, **observers):
    depth, lines, ports, private, miss = timing
    compiled = interned_pipeline(spec, ReplicationPolicy(policy), workers)
    return run_hardware(
        spec, f"cgpa-{policy}", compiled,
        DirectMappedCache(n_lines=lines, ports=ports, miss_penalty=miss),
        private_caches=private, fifo_depth=depth, **observers,
    )


def scored(run):
    """Everything a design-point evaluation reads off a run."""
    return (run.sim.to_dict(), run.cycles, run.aluts, run.energy_uj,
            run.power_mw, run.checksum, run.return_value, run.signature)


def counted(sim):
    """Each worker's operation counters: what a run does, not when."""
    return {name: (stats.loads, stats.stores, stats.fifo_pushes,
                   stats.fifo_pops, dict(stats.ops_executed))
            for name, stats in sim.worker_stats.items()}


class TestEveryTimingRunsInFull:
    @pytest.mark.parametrize("name,policy", KERNEL_POLICIES)
    def test_registered_kernels_over_the_timing_matrix(self, name, policy):
        spec = small(name)
        for workers in (1, 2, 4):
            for timing in TIMINGS:
                full = run_point(spec, policy, workers, timing)
                reference = run_point(
                    spec, policy, workers, timing, engine="event")
                assert scored(full) == scored(reference), (workers, timing)

    @pytest.mark.parametrize("name,policy,workers,scale", [
        *((name, policy, 2, "smoke") for name, policy in KERNEL_POLICIES),
        *((name, "p1", 4, "paper") for name in ("ks", "bfs", "hash-join")),
    ])
    def test_counted_operations_do_not_depend_on_timing(
        self, name, policy, workers, scale
    ):
        # Timing moves cycles and stalls, never the work: every timing
        # of a design loads, stores, pushes, pops and computes the same.
        spec = small(name) if scale == "smoke" else KERNELS_BY_NAME[name]
        runs = [run_point(spec, policy, workers, timing) for timing in TIMINGS]
        for timing, run in zip(TIMINGS, runs):
            assert counted(run.sim) == counted(runs[0].sim), timing
            assert run.checksum == runs[0].checksum, timing
        # A sink turns run-ahead off; the traced run counts the same
        # operations and shows every cache transaction the cache counts.
        sink = MemoryTraceSink()
        traced = run_point(spec, policy, workers, TIMINGS[0], sink=sink)
        assert scored(traced) == scored(runs[0])
        cache = traced.sim.cache_stats
        assert len(sink.cache_accesses) == cache.hits + cache.misses

    @pytest.mark.parametrize("name", ["ks", "bfs", "hash-join"])
    def test_paper_scale_sweep_grid_through_the_evaluator(self, name):
        spec = KERNELS_BY_NAME[name]
        evaluator = Evaluator(spec)
        groups: dict = {}
        for point in ConfigSpace(**SWEEP_SPACE).grid():
            design = interned_pipeline(
                spec, point.replication_policy, point.n_workers).design_key
            groups.setdefault(design, []).append(point)
        assert len(groups) == 2  # p1 and none compile alike
        for points in groups.values():
            results, derived = evaluator.evaluate_structure(points)
            assert [r.to_dict() for r in results] == [
                evaluator.evaluate(p).to_dict() for p in points]
            # Two depths run in full; ``none`` takes p1's results, and
            # each run's cache shadow times the other size.
            assert derived == len(points) - 2

    @staticmethod
    def _fuzzed(source, entry_args, policy, workers):
        """A fuzzed pipeline at three (depth, lines, private) timings on
        the specialized and the event engine."""
        module = compile_c(source)
        optimize_module(module)
        shapes = RegionShapes()
        for site in malloc_site_table(module):
            shapes.declare(site, Shape.LIST)
        # One pipeline per (policy, workers): depth belongs to the systems.
        compiled = cgpa_compile(
            module, "kernel", shapes=shapes,
            policy=ReplicationPolicy(policy), n_workers=workers,
        )
        for depth, lines, private in [(16, 512, False), (2, 16, True),
                                      (1, 128, False)]:
            reports = [
                AcceleratorSystem(
                    compiled.module, Memory(),
                    channels=compiled.result.channels,
                    cache=DirectMappedCache(n_lines=lines),
                    private_caches=private, fifo_depth=depth, engine=engine,
                ).run("run", entry_args).to_dict()
                for engine in ("specialized", "event")
            ]
            assert reports[0] == reports[1], (policy, workers, depth)

    @given(kernel_source(), st.sampled_from(["p1", "p2", "none"]),
           st.sampled_from([1, 2, 4]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fuzzed_array_kernels(self, src, policy, workers):
        n, source = src
        self._fuzzed(source, [n], policy, workers)

    @given(st.sampled_from(LIST_UPDATES), st.integers(0, 30),
           st.sampled_from(["p1", "p2"]))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fuzzed_list_kernels(self, update, n, policy):
        source = LINKED_LIST_TEMPLATE.format(update=update)
        self._fuzzed(source, [n], policy, 4)


# --------------------------------------------------------------------------
# Hand-built structures: state two workers share
# --------------------------------------------------------------------------


def hand_built(task_body):
    """``parent`` forks two workers of one task built by ``task_body(m,
    builder, channel, worker)``, pops what they pushed, joins them."""
    m = Module("m")
    plan = ChannelPlan()
    channel = plan.new_channel("c", I32, 0, 1)
    pushes = 0
    forks = []
    for worker in (0, 1):
        task = m.new_function(f"task{worker}", FunctionType(VOID, []), [])
        builder = IRBuilder(task.new_block("entry"))
        pushes += task_body(m, builder, channel, worker) or 0
        builder.ret()
        task.task_info = TaskInfo(0, 0, StageKind.SEQUENTIAL, 1)
        forks.append(ParallelFork(0, task, [], worker))
    parent = m.new_function("parent", FunctionType(VOID, []), [])
    pb = IRBuilder(parent.new_block("entry"))
    for fork in forks:
        pb.block.append(fork)
    for _ in range(pushes):
        pb.block.append(Consume(channel, I32, pb.const_int(0)))
    pb.block.append(ParallelJoin(0))
    pb.ret()
    return m, plan


def global_of(m, name):
    return m.globals.get(name) or m.add_global(I32, name)


def private_words(m, b, channel, worker):
    g = global_of(m, f"g{worker}")
    b.store(b.add(b.load(g), b.const_int(worker + 1)), g)


def shared_written_word(m, b, channel, worker):
    b.store(b.const_int(worker), global_of(m, "shared"))


def word_read_by_one_written_by_another(m, b, channel, worker):
    g = global_of(m, "shared")
    if worker:
        b.store(b.const_int(1), g)
    else:
        b.load(g)


def shared_queue(m, b, channel, worker):
    b.block.append(Produce(channel, b.const_int(worker), b.const_int(0)))
    return 1


def one_queue_per_worker(m, b, channel, worker):
    if worker == 0:
        b.block.append(Produce(channel, b.const_int(7), b.const_int(0)))
        return 1


def concurrent_malloc(m, b, channel, worker):
    malloc = m.functions.get("malloc") or m.new_function(
        "malloc", FunctionType(PointerType(I32), [I32]), ["n"])
    b.call(malloc, [b.const_int(8)])


def concurrent_alloca(m, b, channel, worker):
    b.alloca(I32)


BODIES = [private_words, shared_written_word,
          word_read_by_one_written_by_another, shared_queue,
          one_queue_per_worker, concurrent_malloc, concurrent_alloca]


class TestHandBuiltStructures:
    @pytest.mark.parametrize("reference", ["event", "lockstep"])
    @pytest.mark.parametrize("body", BODIES, ids=lambda body: body.__name__)
    def test_every_depth_matches_the_reference(self, body, reference):
        module, plan = hand_built(body)
        for depth in (1, 4, 16):
            images, reports = [], []
            for engine in ("specialized", reference):
                memory = Memory()
                reports.append(AcceleratorSystem(
                    module, memory, channels=plan, fifo_depth=depth,
                    engine=engine,
                ).run("parent", []).to_dict())
                images.append(memory.snapshot())
            assert reports[0] == reports[1], depth
            assert images[0] == images[1], depth


# --------------------------------------------------------------------------
# What a sweep runs and what it derives
# --------------------------------------------------------------------------


class TestSweepRuns:
    @pytest.mark.parametrize("engine", ["lockstep", "event"])
    def test_reference_engines_never_share_a_design_run(self, engine):
        # ``p1`` and ``none`` compile to one ks design: the default
        # engine runs each of its timings once, a reference engine every
        # point.
        spec = small("ks")
        space = ConfigSpace(policies=["p1", "none"], n_workers=[2],
                            fifo_depths=[4, 16], cache_lines=[128, 512])
        with Explorer(spec, space, engine=engine) as explorer:
            sweep = explorer.run(GridStrategy())
        assert sweep.derived == 0
        with Explorer(spec, space) as explorer:
            default = explorer.run(GridStrategy())
        assert default.derived > 0
        assert (json.dumps(default.to_json_dict(), sort_keys=True)
                == json.dumps(sweep.to_json_dict(), sort_keys=True))

    def test_ks_sweep_grid_ticks(self, monkeypatch):
        """Wall-clock-free pin of what derivation saves: per 16-point ks
        grid, full runs of every point take 316 472 worker ticks.  ``p1``
        and ``none`` compile to one design per worker count, so one run
        per FIFO depth of each design is all the sweep simulates; the
        other twelve points are derived, and the sweep takes a quarter of
        the ticks: 79 118.  A tick is what the event clock resumes: a
        rendered worker's generator."""
        ticks = [0]

        def record(worker, cycle):
            assert isinstance(worker, SpecializedWorker)
            ticks[0] += 1

        count_resumes(monkeypatch, record)
        with Explorer(KERNELS_BY_NAME["ks"], ConfigSpace(**SWEEP_SPACE)) as explorer:
            sweep = explorer.run(GridStrategy())
        assert sum(r.cycles for r in sweep.results) == 485_048
        assert (sweep.cache_misses, sweep.derived) == (16, 12)
        assert ticks[0] == 79_118
