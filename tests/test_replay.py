"""Record once, time many: trace replay must equal the full simulator.

``repro.hw.replay`` records one specialized run's per-worker event
streams and re-times them under other FIFO depths and cache
organisations; ``Evaluator.evaluate_structure`` is its one consumer.
Exactness is the contract: every replayed report is compared with a full
simulation of the same point, field for field, with no tolerance.
"""

import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import RegionShapes, Shape
from repro.dse import (
    ConfigSpace,
    DesignPoint,
    Evaluator,
    Explorer,
    GridStrategy,
)
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultPlan, FifoBackpressureFault
from repro.fleet import interned_pipeline
from repro.frontend import compile_c
from repro.harness.cli.jobs import _dse_scoring
from repro.harness.report import format_pareto
from repro.harness.runner import Workload, run_hardware
from repro.hw import AcceleratorSystem, DirectMappedCache, SpecializedWorker
from repro.hw import replay
from repro.hw.replay import Recording
from tests.test_specialized_engine import count_resumes
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

#: (fifo depth, cache lines, ports, private caches, miss penalty): nine
#: rows covering every pair of values of depth 1/4/16, lines 16/128/512,
#: ports 1/8, shared/private and miss penalty 7/200.  The first row's run
#: is the one recorded; all nine are replayed.
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

#: Structures whose recording the gate refuses: spmv's forced P2
#: partition is one parallel stage whose workers all latch liveout 0.
REFUSED = {("spmv", "p2", 2), ("spmv", "p2", 4)}

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


def no_image(checksum):
    """The workload of a replayed run: nothing to set up or check."""
    return Workload(lambda module, spec: (None, {}, []), lambda *image: checksum)


def run_point(spec, policy, workers, timing, **run_path):
    """One run; ``run_path`` is a recording's ``system=`` and, for a
    replay, its (empty) ``workload=``."""
    depth, lines, ports, private, miss = timing
    compiled = interned_pipeline(spec, ReplicationPolicy(policy), workers)
    return run_hardware(
        spec, f"cgpa-{policy}", compiled,
        DirectMappedCache(n_lines=lines, ports=ports, miss_penalty=miss),
        private_caches=private, fifo_depth=depth, **run_path,
    )


def scored(run):
    """Everything a design-point evaluation reads off a run."""
    return (run.sim.to_dict(), run.cycles, run.aluts, run.energy_uj,
            run.power_mw, run.checksum, run.return_value, run.signature)


class TestReplayEqualsSpecialized:
    @pytest.mark.parametrize("name,policy", KERNEL_POLICIES)
    def test_registered_kernels_over_the_timing_matrix(self, name, policy):
        spec = small(name)
        for workers in (1, 2, 4):
            recording = Recording()
            recorded = run_point(
                spec, policy, workers, TIMINGS[0], system=recording.recorder)
            # The recording run is itself a full simulation.
            assert scored(recorded) == scored(
                run_point(spec, policy, workers, TIMINGS[0]))
            assert recording.usable == ((name, policy, workers) not in REFUSED)
            if not recording.usable:
                continue
            for timing in TIMINGS:
                replayed = run_point(
                    spec, policy, workers, timing, system=recording.replayer,
                    workload=no_image(recorded.checksum))
                full = run_point(spec, policy, workers, timing)
                assert scored(replayed) == scored(full), (workers, timing)

    @pytest.mark.parametrize("name", ["ks", "bfs", "hash-join"])
    def test_paper_scale_sweep_grid_through_the_evaluator(self, name):
        evaluator = Evaluator(KERNELS_BY_NAME[name])
        groups: dict = {}
        for point in ConfigSpace(**SWEEP_SPACE).grid():
            groups.setdefault(point.compile_key, []).append(point)
        for points in groups.values():
            results, tally = evaluator.evaluate_structure(points)
            assert tally == {
                "recorded": 1, "replayed": 1, "derived": 2,
                "replay_fallbacks": 0}
            assert [r.to_dict() for r in results] == [
                evaluator.evaluate(p).to_dict() for p in points]

    @pytest.mark.parametrize("name,policy,workers,scale", [
        *((name, policy, 2, "smoke") for name, policy in KERNEL_POLICIES),
        *((name, "p1", 4, "paper") for name in ("ks", "bfs", "hash-join")),
    ])
    def test_every_recorded_event_is_a_counted_operation(self, name, policy, workers, scale):
        # The recorder taps _complete_memory/_push/_pop: an engine path
        # that bypassed one would still simulate the same bytes but record
        # too few events, and every replay of the recording would be wrong.
        spec = small(name) if scale == "smoke" else KERNELS_BY_NAME[name]
        recording, recorded = Recording(), []

        def recorder(*args, **kwargs):
            system = recording.recorder(*args, **kwargs)
            register = system._register_worker

            def remember(worker):
                recorded.append(worker)
                register(worker)

            system._register_worker = remember
            return system

        run_point(spec, policy, workers, TIMINGS[0], system=recorder)
        assert recorded
        for worker in recorded:
            kinds = Counter(event[1] for event in worker.trace.events)
            broadcast = sum(recording.channels[event[2]]
                            for event in worker.trace.events if event[1] == replay.BROADCAST)
            stats = worker.stats
            assert kinds[replay.MEM] == stats.loads + stats.stores, worker.name
            assert kinds[replay.PUSH] + broadcast == stats.fifo_pushes, worker.name
            assert kinds[replay.POP] == stats.fifo_pops, worker.name
            assert kinds[replay.DONE] == 1, worker.name

    @staticmethod
    def _fuzzed(source, entry_args, policy, workers):
        """Replay of a fuzzed pipeline at two other (depth, lines, private)
        timings against full runs; returns whether the gate let it."""
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
        reports = {}
        recording = Recording()
        for kind, depth, lines, private in [
            ("record", 16, 512, False), ("full", 2, 16, True),
            ("replay", 2, 16, True), ("full", 1, 128, False),
            ("replay", 1, 128, False),
        ]:
            if kind == "replay" and not recording.usable:
                continue
            build = {"record": recording.recorder, "full": AcceleratorSystem,
                     "replay": recording.replayer}[kind]
            system = build(
                compiled.module, None if kind == "replay" else Memory(),
                channels=compiled.result.channels,
                cache=DirectMappedCache(n_lines=lines),
                global_addresses={} if kind == "replay" else None,
                private_caches=private, fifo_depth=depth,
            )
            reports[kind, depth] = system.run("run", entry_args).to_dict()
        for (kind, depth), report in reports.items():
            if kind == "replay":
                assert report == reports["full", depth], (policy, workers)
        return recording.usable

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

    def test_fuzzed_pipelines_are_mostly_usable(self):
        # The two properties above must not pass by refusing everything.
        n, source = 24, LINKED_LIST_TEMPLATE.format(update=LIST_UPDATES[0])
        assert self._fuzzed(source, [n], "p1", 4)


# --------------------------------------------------------------------------
# Gate (a): a recording must prove its own timing-independence
# --------------------------------------------------------------------------


def hand_built(task_body, n_queues=1):
    """``parent`` forks two workers of one task built by ``task_body(m,
    builder, channel, worker)``, pops what they pushed, joins them."""
    m = Module("m")
    plan = ChannelPlan()
    channel = plan.new_channel("c", I32, 0, 1, n_channels=n_queues)
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


def record(module, plan, depth=4):
    recording = Recording()
    system = recording.recorder(module, Memory(), channels=plan, fifo_depth=depth)
    return recording, system.run("parent", [])


def global_of(m, name):
    return m.globals.get(name) or m.add_global(I32, name)


class TestGate:
    def test_private_words_are_recorded_and_replayed(self):
        def body(m, b, channel, worker):
            g = global_of(m, f"g{worker}")
            b.store(b.add(b.load(g), b.const_int(worker + 1)), g)

        module, plan = hand_built(body)
        recording, _ = record(module, plan)
        assert recording.usable
        for depth in (1, 16):
            full = AcceleratorSystem(
                module, Memory(), channels=plan, fifo_depth=depth)
            replayed = recording.replayer(
                module, None, channels=plan, global_addresses={},
                fifo_depth=depth)
            assert (replayed.run("parent", []).to_dict()
                    == full.run("parent", []).to_dict())

    def test_shared_written_word_is_refused(self):
        def body(m, b, channel, worker):
            b.store(b.const_int(worker), global_of(m, "shared"))

        recording, _ = record(*hand_built(body))
        assert not recording.usable

    def test_word_read_by_one_worker_and_written_by_another_is_refused(self):
        def body(m, b, channel, worker):
            g = global_of(m, "shared")
            if worker:
                b.store(b.const_int(1), g)
            else:
                b.load(g)

        recording, _ = record(*hand_built(body))
        assert not recording.usable

    def test_shared_queue_is_refused(self):
        def body(m, b, channel, worker):
            b.block.append(Produce(channel, b.const_int(worker), b.const_int(0)))
            return 1

        recording, report = record(*hand_built(body))
        assert report.fifo_stats["buf0:c"].pushes == 2
        assert not recording.usable

    def test_one_queue_per_worker_is_accepted(self):
        def body(m, b, channel, worker):
            if worker == 0:
                b.block.append(
                    Produce(channel, b.const_int(7), b.const_int(0)))
                return 1

        recording, _ = record(*hand_built(body))
        assert recording.usable

    def test_concurrent_malloc_is_refused(self):
        def body(m, b, channel, worker):
            malloc = m.functions.get("malloc") or m.new_function(
                "malloc", FunctionType(PointerType(I32), [I32]), ["n"])
            b.call(malloc, [b.const_int(8)])

        recording, _ = record(*hand_built(body))
        assert not recording.usable

    def test_concurrent_alloca_is_refused(self):
        def body(m, b, channel, worker):
            b.alloca(I32)

        recording, _ = record(*hand_built(body))
        assert not recording.usable

    def test_a_refused_recording_cannot_be_replayed(self):
        def body(m, b, channel, worker):
            b.store(b.const_int(worker), global_of(m, "shared"))

        module, plan = hand_built(body)
        recording, _ = record(module, plan)
        with pytest.raises(SimulationError, match="no usable recording"):
            recording.replayer(module, None, channels=plan, global_addresses={})

    def test_a_recording_of_another_channel_plan_cannot_be_replayed(self):
        module, plan = hand_built(lambda m, b, channel, worker: None)
        recording, _ = record(module, plan)
        assert recording.usable
        other, wider = hand_built(lambda m, b, channel, worker: None, n_queues=2)
        with pytest.raises(SimulationError, match="channel plan"):
            recording.replayer(other, None, channels=wider, global_addresses={})

    def test_refused_structure_falls_back_to_full_simulation(self):
        evaluator = Evaluator(small("spmv"))
        points = [DesignPoint(policy="p2", n_workers=2, fifo_depth=d)
                  for d in (4, 16, 2)]
        results, tally = evaluator.evaluate_structure(points)
        assert tally == {"recorded": 1, "replayed": 0, "derived": 0,
                         "replay_fallbacks": 2}
        assert [r.to_dict() for r in results] == [
            evaluator.evaluate(p).to_dict() for p in points]


# --------------------------------------------------------------------------
# Gates (b) and (c), and the explorer around them
# --------------------------------------------------------------------------


class TestFallbackAndBypass:
    @pytest.mark.parametrize("depths", [(0, 4, 16, 2), (4, 0, 16), (4, 16, 0)])
    def test_deadlocking_depth_in_a_shard(self, depths):
        evaluator = Evaluator(small("ks"))
        points = [DesignPoint(n_workers=2, fifo_depth=d) for d in depths]
        results, tally = evaluator.evaluate_structure(points)
        alone = [evaluator.evaluate(p) for p in points]
        assert [r.to_dict() for r in results] == [r.to_dict() for r in alone]
        bad = depths.index(0)
        assert results[bad].status == "deadlock" and results[bad].diagnosis
        assert all(r.ok for i, r in enumerate(results) if i != bad)
        # The healthy siblings still share one recording.
        assert tally == {
            "recorded": 1,
            "replayed": len(depths) - 2,
            "derived": 0,
            "replay_fallbacks": 1 if bad else 0,
        }

    def test_cycle_budget_in_a_shard(self):
        spec = small("ks")
        full = Evaluator(spec).evaluate(DesignPoint(n_workers=2, fifo_depth=16))
        points = [DesignPoint(n_workers=2, fifo_depth=d) for d in (16, 1, 4)]
        tight = Evaluator(spec, max_cycles=full.cycles + 1)
        results, tally = tight.evaluate_structure(points)
        assert [r.to_dict() for r in results] == [
            tight.evaluate(p).to_dict() for p in points]
        assert results[0].ok and results[1].status == "timeout"
        assert tally["replay_fallbacks"] >= 1

    def test_single_point_shards_never_record(self, monkeypatch):
        monkeypatch.setattr(Recording, "recorder", None)  # would raise
        evaluator = Evaluator(small("ks"))
        point = DesignPoint(n_workers=2)
        results, tally = evaluator.evaluate_structure([point])
        assert results[0].to_dict() == evaluator.evaluate(point).to_dict()
        assert tally == {"recorded": 0, "replayed": 0, "derived": 0,
                         "replay_fallbacks": 0}

    @pytest.fixture
    def replay_workers(self, monkeypatch):
        built = []
        init = replay._ReplayWorker.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(replay._ReplayWorker, "__init__", counting)
        return built

    @pytest.mark.parametrize("engine", ["lockstep", "event"])
    def test_reference_engines_never_replay(self, engine, replay_workers):
        spec = small("ks")
        space = ConfigSpace(policies=["p1"], n_workers=[2], fifo_depths=[4, 16])
        with Explorer(spec, space, engine=engine) as explorer:
            sweep = explorer.run(GridStrategy())
        assert not replay_workers
        assert (sweep.recorded, sweep.replayed, sweep.replay_fallbacks) == (0, 0, 0)
        with Explorer(spec, space) as explorer:
            default = explorer.run(GridStrategy())
        assert replay_workers and default.replayed == 1
        assert default.to_json_dict() == sweep.to_json_dict()

    def test_observers_refuse_replay_before_any_worker_exists(
        self, replay_workers
    ):
        spec = small("ks")
        recording = Recording()
        recorded = run_point(
            spec, "p1", 2, TIMINGS[0], system=recording.recorder)
        assert recording.usable
        compiled = interned_pipeline(spec, ReplicationPolicy.P1, 2)
        backpressure = FaultPlan(seed=0, kind="timing", faults=(
            FifoBackpressureFault(0, start=10, duration=50),))
        observers = [
            {"sink": MemoryTraceSink()},
            {"injector": FaultInjector(backpressure)},
            {"engine": "lockstep"},
            {"engine": "event"},
        ]
        for observer in observers:
            for build in (recording.replayer, Recording().recorder):
                with pytest.raises(SimulationError, match="trace replay"):
                    run_hardware(
                        spec, "cgpa-p1", compiled, DirectMappedCache(),
                        workload=no_image(recorded.checksum),
                        system=build, **observer,
                    )
        assert not replay_workers

    def test_report_bytes_do_not_depend_on_pool_size_or_replay(self):
        spec = small("bfs")
        space = ConfigSpace(
            policies=["p1", "none"], n_workers=[1, 2], fifo_depths=[2, 16],
            cache_lines=[16, 512], private_caches=[False, True],
        )
        sweeps = {}
        for label, kwargs in {
            "serial": {}, "pool": {"processes": 2},
            "no-replay": {"engine": "event"},
        }.items():
            with Explorer(spec, space, **kwargs) as explorer:
                sweeps[label] = explorer.run(GridStrategy())
        reports = {label: json.dumps(sweep.to_json_dict(), sort_keys=True)
                   for label, sweep in sweeps.items()}
        assert reports["serial"] == reports["pool"] == reports["no-replay"]
        for label in ("serial", "pool"):
            sweep = sweeps[label]
            assert (sweep.recorded, sweep.replayed, sweep.derived,
                    sweep.replay_fallbacks) == (2, 10, 20, 0)
        evaluator = Evaluator(spec)
        assert [r.to_dict() for r in sweeps["serial"].results] == [
            evaluator.evaluate(p).to_dict() for p in space.grid()]


class TestDesignSharding:
    """A sweep shards by design content, so knob settings that compile to
    the same pipeline (``p1`` and ``none`` on most kernels) share one
    recording and their results."""

    @pytest.mark.parametrize("name", [spec.name for spec in ALL_KERNELS])
    def test_every_sweep_result_equals_its_full_evaluation(self, name):
        spec = small(name)
        space = ConfigSpace(
            policies=["p1", "none"] + (["p2"] if spec.supports_p2 else []),
            n_workers=[2], fifo_depths=[4, 16], cache_lines=[128, 512],
        )
        with Explorer(spec, space) as explorer:
            sweep = explorer.run(GridStrategy())
        evaluator = Evaluator(spec)
        points = space.grid()
        assert [r.to_dict() for r in sweep.results] == [
            evaluator.evaluate(p).to_dict() for p in points]
        designs = {
            interned_pipeline(spec, p.replication_policy, p.n_workers).design_key
            for p, result in zip(points, sweep.results) if result.ok
        }
        assert sweep.recorded == len(designs)

    def test_the_key_reads_the_module_text(self):
        # One constant of the loop body apart: the channel plans and
        # stages agree, so only the module text tells the designs apart.
        spec = small("ks")
        variant = dataclasses.replace(spec, source=spec.source.replace(
            "- 2.0 * w[a->id", "- 3.0 * w[a->id", 1))
        first, second = (interned_pipeline(s, ReplicationPolicy.P1, 2)
                         for s in (spec, variant))
        assert [vars(c) for c in first.result.channels] == [
            vars(c) for c in second.result.channels]
        assert first.signature == second.signature
        assert first.design_key != second.design_key


class TestCounters:
    @pytest.fixture(scope="class")
    def sweep(self):
        space = ConfigSpace(policies=["p1"], n_workers=[2], fifo_depths=[4, 16])
        with Explorer(small("ks"), space) as explorer:
            return explorer.run(GridStrategy())

    def test_counts_stay_out_of_the_deterministic_form(self, sweep):
        assert (sweep.recorded, sweep.replayed, sweep.replay_fallbacks) == (1, 1, 0)
        text = json.dumps(sweep.to_json_dict())
        assert "replay" not in text and "recorded" not in text
        rebuilt = type(sweep).from_json_dict(sweep.to_json_dict())
        assert rebuilt.replayed == 0

    def test_envelope_extra_and_report_line_carry_them(self, sweep):
        extra = _dse_scoring(sweep)
        assert (extra["recorded"], extra["replayed"],
                extra["replay_fallbacks"]) == (1, 1, 0)
        assert ("result cache: 0/2 hits (0%); 1 simulated in full "
                "(1 recorded), 1 replayed, 0 derived, 0 replay fallbacks"
                ) in format_pareto(sweep)


class TestHostTicks:
    def test_ks_sweep_grid_ticks(self, monkeypatch):
        """Wall-clock-free pin of what replay saves: per 16-point ks grid
        the full simulator takes 316 472 worker ticks (two per memory
        access).  ``p1`` and ``none`` compile to one design per worker
        count, so one recorded run per design plus one replay each take
        59 826 (39 577 full, 20 249 replay, one per access), and the other
        twelve points are derived.  A tick is what the event clock resumes:
        a recording worker's generator, a replay worker's ``tick``."""
        ticks = {"full": 0, "replay": 0}

        def record(worker, cycle):
            replayed = isinstance(worker, replay._ReplayWorker)
            assert replayed or isinstance(worker, SpecializedWorker)
            ticks["replay" if replayed else "full"] += 1

        count_resumes(monkeypatch, record)
        with Explorer(KERNELS_BY_NAME["ks"], ConfigSpace(**SWEEP_SPACE)) as explorer:
            sweep = explorer.run(GridStrategy())
        assert sum(r.cycles for r in sweep.results) == 485_048
        assert (sweep.recorded, sweep.replayed, sweep.derived) == (2, 2, 12)
        assert ticks == {"full": 39_577, "replay": 20_249}
