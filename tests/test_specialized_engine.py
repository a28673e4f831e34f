"""Differential tests: the specialized engine vs event and lockstep.

The specialized engine (:mod:`repro.hw.specialize`) compiles each
worker's FSM schedule into generated Python and closures — per-state
dispatch resolved at build time, operand slots pre-indexed, pure
compute runs batched into one tick — so the hot path stops walking
``Instruction`` objects.  None of that is allowed to be observable:
the contract is *bit-identical* ``SimReport``\\ s against both the
event engine and the lockstep oracle on every kernel and policy —
cycles, per-worker stall breakdowns, op counters, cache and FIFO
statistics, liveout checksums — plus identical failure behaviour
(budget exhaustion at the same cycle, identical trace spans when a
sink disables batching).  ``TestRunAhead`` pins the batching itself:
run-ahead through register-only control flow changes how many host
ticks a run costs and nothing else.
"""

import dataclasses

import pytest

from repro.dse import ConfigSpace, Evaluator
from repro.errors import CycleBudgetExceeded, DeadlockError
from repro.faults import FaultInjector, FaultPlan, MemLatencyFault, WorkerHangFault
from repro.fleet import interned_workload
from repro.frontend import compile_c
from repro.hw import (
    AcceleratorSystem,
    DirectMappedCache,
    EventScheduler,
    MemoryTraceSink,
    specialized_for,
)
from repro.hw.specialize import SpecializedWorker
from repro.interp import Interpreter, Memory
from repro.ir import I32
from repro.kernels import ALL_KERNELS, KARGS_GLOBAL, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy, cgpa_compile
from repro.telemetry.events import CycleCategory
from repro.transforms import optimize_module

ENGINES = ("event", "lockstep", "specialized")

KERNEL_NAMES = [spec.name for spec in ALL_KERNELS]

#: Scaled-down workloads: the policy matrix is 9 kernels x 3 policies x
#: 3 engines; small inputs keep it a seconds-scale suite while running
#: the exact same compiled pipelines as the full-size workloads.
SMALL_ARGS = {
    "1D-Gaussblur": [6, 48],
    "Hash-indexing": [128, 32],
    "K-means": [24, 3, 4],
    "em3d": [48, 32, 4],
    "ks": [12, 12],
    "bfs": [1, 40, 3],
    "hash-join": [1, 40, 32, 8],
    "spmv": [1, 20, 16, 3],
    "top-k": [1, 48, 6],
}

_COMPILED: dict[tuple, object] = {}


def small_spec(name: str):
    return dataclasses.replace(KERNELS_BY_NAME[name], setup_args=SMALL_ARGS[name])


def compiled_kernel(name: str, policy: str = "p1", n_workers: int = 4):
    key = (name, policy, n_workers)
    if key not in _COMPILED:
        spec = small_spec(name)
        module = compile_c(spec.source, spec.name)
        optimize_module(module)
        _COMPILED[key] = cgpa_compile(
            module, spec.accel_function, shapes=spec.shapes_for(module),
            policy=ReplicationPolicy(policy), n_workers=n_workers,
        )
    return _COMPILED[key]


def simulate(name: str, engine: str, policy: str = "p1", sink=None,
             **system_kwargs):
    """Run one (kernel, policy) on one engine; returns (report, checksum)."""
    spec = small_spec(name)
    compiled = compiled_kernel(name, policy)
    # Cloned from one interned image: every engine sees bit-identical
    # inputs, so report differences can only come from the engine.
    memory, globals_, args = interned_workload(compiled.module, spec)
    system = AcceleratorSystem(
        compiled.module, memory,
        channels=compiled.result.channels,
        cache=DirectMappedCache(ports=8),
        global_addresses=globals_,
        sink=sink,
        engine=engine,
        **system_kwargs,
    )
    sim = system.run(spec.measure_entry, args)
    interp = Interpreter(compiled.module, memory, global_addresses=globals_)
    return sim, float(interp.call(spec.check_function, []))


def assert_reports_identical(got, want):
    assert got.cycles == want.cycles
    assert got.return_value == want.return_value
    assert got.invocations == want.invocations
    assert got.worker_stats == want.worker_stats
    assert got.cache_stats == want.cache_stats
    assert got.fifo_stats == want.fifo_stats
    assert got.stall_breakdown == want.stall_breakdown


class TestKernelPolicyMatrix:
    """Every kernel x policy: specialized == event == lockstep, bit for bit."""

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    @pytest.mark.parametrize("policy", ["p1", "p2", "none"])
    def test_bit_identical_reports(self, name, policy):
        spec = KERNELS_BY_NAME[name]
        if policy == "p2" and not spec.supports_p2:
            pytest.skip(f"{name} has no P2 configuration")
        runs = {engine: simulate(name, engine, policy) for engine in ENGINES}
        specialized, specialized_checksum = runs["specialized"]
        for oracle in ("event", "lockstep"):
            sim, checksum = runs[oracle]
            assert_reports_identical(specialized, sim)
            assert specialized_checksum == checksum, (name, policy, oracle)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_stall_breakdown_conserved(self, name):
        # Batched COMPUTE attribution must keep each worker's buckets
        # summing to the total cycle count (the conservation law every
        # run ends by checking).
        sim, _ = simulate(name, "specialized")
        for worker, counts in sim.stall_breakdown.items():
            assert sum(counts.values()) == sim.cycles, worker


class _SpyMemory(Memory):
    """Counts the accesses that reach ``read_bytes``/``write_bytes``."""

    reads = writes = 0

    def read_bytes(self, addr, size):
        self.reads += 1
        return super().read_bytes(addr, size)

    def write_bytes(self, addr, data):
        self.writes += 1
        super().write_bytes(addr, data)


class TestMemorySubclass:
    """Loads and stores complete through ``Memory.loader``/``storer``,
    which keep a subclass on its own ``load``/``store``."""

    @staticmethod
    def run(name: str, engine: str, memory_class):
        spec, compiled = small_spec(name), compiled_kernel(name)
        interp = Interpreter(compiled.module, memory_class())
        interp.call(spec.setup_function, list(spec.setup_args))
        memory, kargs = interp.memory, interp.global_addresses[KARGS_GLOBAL]
        args = [
            memory.load(kargs + 4 * i, I32) & 0xFFFFFFFF
            for i in range(spec.n_kernel_args)
        ]
        memory.reads = memory.writes = 0  # drop the set-up's own traffic
        system = AcceleratorSystem(
            compiled.module, memory, channels=compiled.result.channels,
            cache=DirectMappedCache(ports=8),
            global_addresses=interp.global_addresses, engine=engine,
        )
        return system.run(spec.measure_entry, args), memory

    @pytest.mark.parametrize("name", ["ks", "1D-Gaussblur", "em3d"])
    def test_subclass_sees_every_access_and_the_report_is_unchanged(self, name):
        sim, spy = self.run(name, "specialized", _SpyMemory)
        want, plain = self.run(name, "event", Memory)
        assert_reports_identical(sim, want)
        assert sim.to_dict() == want.to_dict()
        # The interpretive worker calls memory.load/store per access.
        _, reference = self.run(name, "event", _SpyMemory)
        assert (spy.reads, spy.writes) == (reference.reads, reference.writes)
        assert spy.reads > 0 and (spy.writes > 0 or name == "ks")
        assert spy.snapshot() == plain.snapshot()
        assert (spy.bytes_read, spy.bytes_written) == (
            plain.bytes_read, plain.bytes_written)

    def test_one_program_serves_both_memory_classes(self):
        # Programs are cached on the function and shared by every system,
        # so the accessor is chosen per memory, not per program.
        first, plain = self.run("1D-Gaussblur", "specialized", Memory)
        second, spy = self.run("1D-Gaussblur", "specialized", _SpyMemory)
        third, again = self.run("1D-Gaussblur", "specialized", Memory)
        assert spy.writes > 0
        for sim, memory in ((second, spy), (third, again)):
            assert_reports_identical(sim, first)
            assert memory.snapshot() == plain.snapshot()


class TestFailurePaths:
    def test_budget_exceeded_at_identical_cycle(self):
        # Compute-run batching is capped at the cycle budget, so the
        # specialized engine must report exhaustion at the exact cycle
        # the oracles do — message and all.
        messages = {}
        for engine in ENGINES:
            with pytest.raises(CycleBudgetExceeded) as info:
                simulate("ks", engine, max_cycles=200)
            messages[engine] = str(info.value)
        assert messages["specialized"] == messages["event"]
        assert messages["specialized"] == messages["lockstep"]

    def test_infinite_loop_budget_matches(self):
        source = "int f(void) { int i = 0; while (1) { i++; } return i; }"
        messages = {}
        for engine in ENGINES:
            module = compile_c(source)
            system = AcceleratorSystem(
                module, Memory(), max_cycles=5000, engine=engine,
            )
            with pytest.raises(CycleBudgetExceeded) as info:
                system.run("f", [])
            messages[engine] = str(info.value)
        assert len(set(messages.values())) == 1


class TestTracedRuns:
    def test_traced_spans_identical(self):
        # A trace sink disables compute-run batching (spans are cycle
        # granular); the traced specialized run must produce the exact
        # span cover of the other engines.
        sinks = {engine: MemoryTraceSink() for engine in ENGINES}
        runs = {
            engine: simulate("ks", engine, sink=sinks[engine])
            for engine in ENGINES
        }
        assert_reports_identical(runs["specialized"][0], runs["event"][0])
        assert (
            sinks["specialized"].total_cycles == sinks["lockstep"].total_cycles
        )
        for worker in sinks["lockstep"].worker_names:
            assert sinks["specialized"].spans_for(worker) == sinks[
                "lockstep"
            ].spans_for(worker), worker
        assert sinks["specialized"].spans == sinks["event"].spans


class TestSpecializedProgramCache:
    def test_program_cached_per_function(self):
        compiled = compiled_kernel("ks")
        functions = [
            f for f in compiled.module.functions.values()
            if getattr(f, "task_info", None) is not None
        ]
        assert functions, "pipelined module should contain task functions"
        for function in functions:
            first = specialized_for(function)
            assert specialized_for(function) is first

    def test_private_caches_identical(self):
        runs = {
            engine: simulate("ks", engine, private_caches=True)
            for engine in ENGINES
        }
        assert_reports_identical(runs["specialized"][0], runs["event"][0])
        assert_reports_identical(runs["specialized"][0], runs["lockstep"][0])
        assert runs["specialized"][1] == runs["event"][1]


#: Branch-dense and memory-free once ``mem2reg`` has run: every state of
#: every loop block is register-only (``%`` alone is a 17-state block).
NEST = """
int nest(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < i; j++) {
            if ((i ^ j) & 1) acc += i * j; else acc -= j;
            if (acc > 1000) acc = acc % 7;
        }
    }
    return acc;
}
"""

#: Register-only blocks around one load per iteration (plus a call and a
#: store-filled table), so run-ahead keeps starting and stopping; ``u``
#: is computed in the state that branches and used past the join.
MIXED = """
int a[32];
int helper(int x) { return x * 3 + 1; }
int mixed(int n) {
    for (int i = 0; i < 32; i++) a[i] = helper(i);
    int s = 0;
    for (int i = 0; i < n; i++) {
        int v = a[i & 31];
        int c = v & 3;
        int t = c + 5;
        int u = t ^ 7;
        if (c == 2) s += v; else s -= 1;
        s += u;
        for (int j = 0; j < 3; j++) s ^= j + i;
    }
    a[0] = s;
    return s;
}
"""

#: ``NEST`` under a condition that never turns false (``n`` stays 1): a
#: register-only infinite loop that one specialized tick never leaves.
SPIN = """
int spin(int n) {
    int acc = 0;
    int i = 0;
    while (n) {
        for (int j = 0; j < 3; j++) {
            if ((i ^ j) & 1) acc += i * j; else acc -= j;
            if (acc > 50) acc = acc % 7;
        }
        i++;
    }
    return acc;
}
"""


def position(worker):
    """Where a worker's FSM stands: ``(block, state, cursor)`` (for a
    specialized worker, read off its parked generator)."""
    if not worker._frames:
        return None
    frame = worker._frames[-1]
    return frame.block.short_name(), frame.state, frame.cursor


def count_resumes(monkeypatch, record):
    """Call ``record(worker, cycle)`` after every resumption the event
    clock makes of any worker it is given (a ``HwWorker.tick``, a
    rendered worker's generator), its last one included."""
    add = EventScheduler.add

    def counted_add(self, worker):
        resume = worker.resume

        def counted(cycle):
            try:
                resume(cycle)
            finally:
                record(worker, cycle)

        worker.resume = counted
        add(self, worker)

    monkeypatch.setattr(EventScheduler, "add", counted_add)


def run_source(source, entry, args, engine, optimize=True, **system_kwargs):
    """Run plain C on one engine; returns (report or budget error,
    every worker the run created, the final memory)."""
    module = compile_c(source)
    if optimize:
        optimize_module(module)
    memory = Memory()
    system = AcceleratorSystem(module, memory, engine=engine, **system_kwargs)
    workers = []
    register = system._register_worker

    def remember(worker):
        workers.append(worker)
        register(worker)

    system._register_worker = remember
    try:
        outcome = system.run(entry, args)
    except CycleBudgetExceeded as error:
        outcome = error
    return outcome, workers, memory


@pytest.fixture
def tick_log(monkeypatch):
    """``{(worker, cycle): state after that tick}`` for every tick the
    event clock gives a worker of either engine."""
    log = {}

    def record(worker, cycle):
        log[worker.name, cycle] = (
            position(worker), worker.last_category, worker.stats.to_dict(),
        )

    count_resumes(monkeypatch, record)
    return log


class TestRunAhead:
    """Run-ahead through branches is a host-side batching of private
    work: reports, counters, failure cycles and images do not move."""

    @pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
    @pytest.mark.parametrize("source, entry, args", [
        (NEST, "nest", [12]), (MIXED, "mixed", [40]),
    ], ids=["branch-dense", "one-load"])
    def test_report_workers_and_image_identical(self, source, entry, args, optimize):
        runs = {
            engine: run_source(source, entry, args, engine, optimize=optimize)
            for engine in ENGINES
        }
        want, want_workers, want_memory = runs["lockstep"]
        for engine in ("event", "specialized"):
            sim, workers, memory = runs[engine]
            assert sim.to_dict() == want.to_dict(), engine
            assert [w.name for w in workers] == [w.name for w in want_workers]
            for got, ref in zip(workers, want_workers):
                assert got.stats == ref.stats, (engine, got.name)
                assert got.stats.ops_executed == ref.stats.ops_executed
            assert memory.snapshot() == want_memory.snapshot(), engine

    def test_the_loops_are_register_only(self):
        # The premise of the cases above and below: optimised, the nests
        # hold no state that could end a run-ahead early.
        for source, entry in ((NEST, "nest"), (SPIN, "spin")):
            module = compile_c(source)
            optimize_module(module)
            program = specialized_for(module.get_function(entry))
            tables = program.tables
            blocks = [b for b in tables if "end" not in b.short_name()]
            assert len(blocks) > 6
            assert all(all(program.pure[block]) for block in blocks), entry

    def test_infinite_register_only_loop_stops_at_the_budget(self):
        # One specialized tick runs from cycle 0 to the budget; wherever
        # the budget lands — mid-block, on a branch state, on the first
        # state behind an edge — the worker stands where the event
        # engine's does, cycle for cycle.  (Lockstep raises one tick
        # later by construction; its message is the contract.)
        stops = set()
        for max_cycles in range(40, 140):
            errors = {
                engine: run_source(SPIN, "spin", [1], engine, max_cycles=max_cycles)
                for engine in ENGINES
            }
            assert len({str(error) for error, _, _ in errors.values()}) == 1
            event, (event_worker,), _ = errors["event"]
            fast, (fast_worker,), _ = errors["specialized"]
            assert isinstance(fast, CycleBudgetExceeded)
            assert fast.cycle == event.cycle == max_cycles
            assert position(fast_worker) == position(event_worker)
            assert fast_worker.stats == event_worker.stats
            label, state, _ = position(fast_worker)
            n_states = len(fast_worker._frames[-1].state_ops)
            stops.add(
                "first" if state == 0 else
                "branch" if state == n_states - 1 else "middle"
            )
        assert stops == {"first", "branch", "middle"}

    @pytest.mark.parametrize("observer", ["sink", "injector"])
    def test_an_observer_turns_run_ahead_off(self, observer, tick_log):
        # Anything that can look at a worker between two cycles gets the
        # event engine's tick-per-cycle behaviour, state for state.
        def attach():
            if observer == "sink":
                return {"sink": MemoryTraceSink()}
            plan = FaultPlan(seed=0, kind="timing", faults=(
                MemLatencyFault(start=100, duration=200, extra=7),))
            return {"injector": FaultInjector(plan)}

        logs, reports, observers = {}, {}, {}
        for engine in ("event", "specialized"):
            tick_log.clear()
            observers[engine] = attach()
            reports[engine], _, _ = run_source(
                MIXED, "mixed", [40], engine, **observers[engine])
            logs[engine] = dict(tick_log)
        assert reports["specialized"].to_dict() == reports["event"].to_dict()
        assert logs["specialized"] == logs["event"]
        if observer == "sink":
            fast, event = observers["specialized"]["sink"], observers["event"]["sink"]
            assert fast.spans == event.spans
            assert fast.state_changes == event.state_changes
        # ... and without one, the same program takes far fewer ticks.
        tick_log.clear()
        run_source(MIXED, "mixed", [40], "specialized")
        assert len(tick_log) < len(logs["event"]) // 2

    def test_tick_count_on_the_dse_sweep_grid(self, monkeypatch):
        # Wall-clock-free regression pin: host ticks (resumptions of a
        # worker's generator) per 16-point grid (before run-ahead crossed
        # branches: 490 k / 183 k / 123 k).  ks sits at two ticks per
        # memory access — issue and complete.
        ticks = [0]

        def record(worker, cycle):
            assert isinstance(worker, SpecializedWorker)
            ticks[0] += 1

        count_resumes(monkeypatch, record)
        space = ConfigSpace(
            policies=["p1", "none"], n_workers=[2, 4],
            fifo_depths=[4, 16], cache_lines=[128, 512],
        )
        pins = {"ks": (316_472, 485_048), "bfs": (82_984, 122_632),
                "hash-join": (49_888, 67_976)}
        for name, (count, cycles) in pins.items():
            evaluator = Evaluator(KERNELS_BY_NAME[name], engine="specialized")
            ticks[0] = 0
            results = [evaluator.evaluate(point) for point in space.grid()]
            assert sum(r.cycles for r in results) == cycles, name
            assert ticks[0] == count, (name, ticks[0])


def test_threads_rendering_one_program_give_the_serial_bytes():
    # Groups and runs render on first use and replace themselves in tables
    # every system running the function shares: threads that race to the
    # same first use must each still see the serial run, byte for byte.
    import sys
    import threading

    def simulate(module):
        memory = Memory()
        report = AcceleratorSystem(module, memory, engine="specialized").run("mixed", [40])
        return report.to_dict(), memory.snapshot()

    def module():
        built = compile_c(MIXED)
        optimize_module(built)
        return built

    serial = simulate(module())
    shared = module()
    results = [None] * 4

    def work(slot):
        results[slot] = simulate(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * 4


#: A three-deep call chain inside a loop, with loads and stores on both
#: sides of every call: each call is ``yield from`` its callee's
#: generator, each return a tick of the caller.
CHAIN = """
int a[16];
int leaf(int x) {
    int s = 0;
    for (int i = 0; i < 3; i++) s += a[(x + i) & 15] * i;
    return s;
}
int mid(int x) {
    int t = leaf(x) + 1;
    if (t & 1) t += leaf(x + 1);
    return t;
}
int top(int n) {
    for (int i = 0; i < 16; i++) a[i] = i * 3 + 1;
    int acc = 0;
    for (int i = 0; i < n; i++) { acc += mid(i); a[i & 15] = acc & 255; }
    return acc;
}
"""

#: ``SPIN``'s register-only infinite loop, entered through a call.
CALLED_SPIN = SPIN + "int spun(int n) { return spin(n) + 1; }\n"


def simulate_workers(name: str, engine: str, **system_kwargs):
    """:func:`simulate` that also returns every worker the run created;
    the outcome is the report or the error that stopped the run."""
    spec = small_spec(name)
    compiled = compiled_kernel(name)
    memory, globals_, args = interned_workload(compiled.module, spec)
    system = AcceleratorSystem(
        compiled.module, memory, channels=compiled.result.channels,
        cache=DirectMappedCache(ports=8), global_addresses=globals_,
        engine=engine, **system_kwargs,
    )
    workers = []
    register = system._register_worker

    def remember(worker):
        workers.append(worker)
        register(worker)

    system._register_worker = remember
    try:
        outcome = system.run(spec.measure_entry, args)
    except (CycleBudgetExceeded, DeadlockError) as error:
        outcome = error
    return outcome, workers


class TestRenderedWorker:
    """The generator against the lockstep oracle where its protocol is
    least like a landing's: calls, the budget inside a called loop, a
    deadlock and an injected hang that must wait out a stall."""

    @pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
    def test_a_call_chain_matches_lockstep(self, optimize):
        runs = {
            engine: run_source(CHAIN, "top", [10], engine, optimize=optimize)
            for engine in ENGINES
        }
        want, want_workers, want_memory = runs["lockstep"]
        assert want.return_value == Interpreter(compile_c(CHAIN)).call("top", [10])
        for engine in ("event", "specialized"):
            sim, workers, memory = runs[engine]
            assert sim.to_dict() == want.to_dict(), engine
            assert [w.stats for w in workers] == [w.stats for w in want_workers]
            assert memory.snapshot() == want_memory.snapshot(), engine

    def test_a_call_chain_ticks_like_the_event_engine(self, tick_log):
        sinks, logs = {}, {}
        for engine in ("event", "specialized"):
            tick_log.clear()
            sinks[engine] = MemoryTraceSink()
            run_source(CHAIN, "top", [6], engine, sink=sinks[engine])
            logs[engine] = dict(tick_log)
        assert logs["specialized"] == logs["event"]
        blocks = {position[0] for position, _, _ in logs["specialized"].values() if position}
        assert len(blocks) > 8  # the ticks stood in all three functions
        assert sinks["specialized"].spans == sinks["event"].spans
        assert sinks["specialized"].state_changes == sinks["event"].state_changes

    def test_the_budget_inside_a_called_register_only_loop(self):
        for max_cycles in range(40, 100, 7):
            errors = {
                engine: run_source(CALLED_SPIN, "spun", [1], engine, max_cycles=max_cycles)
                for engine in ENGINES
            }
            assert len({str(error) for error, _, _ in errors.values()}) == 1
            event, (event_worker,), _ = errors["event"]
            fast, (fast_worker,), _ = errors["specialized"]
            assert fast.cycle == event.cycle == max_cycles
            assert len(fast_worker._frames) == 2  # the caller stands on the call
            assert position(fast_worker) == position(event_worker)
            assert fast_worker.stats == event_worker.stats

    def test_a_deadlock_cycle_matches_lockstep(self):
        from tests.test_faults import DEADLOCK_TOPOLOGIES

        for topology, build in sorted(DEADLOCK_TOPOLOGIES.items()):
            errors, workers = {}, {}
            for engine in ENGINES:
                module, plan = build()
                system = AcceleratorSystem(
                    module, Memory(), channels=plan, engine=engine, fifo_depth=1
                )
                made = []
                register = system._register_worker
                system._register_worker = lambda w, r=register, m=made: (m.append(w), r(w))
                with pytest.raises(DeadlockError) as info:
                    system.run("parent", [])
                errors[engine], workers[engine] = info.value, made
            want = errors["lockstep"]
            assert str(errors["specialized"]) == str(want), topology
            assert errors["specialized"].diagnosis.to_dict() == want.diagnosis.to_dict()
            for fast, event in zip(workers["specialized"], workers["event"]):
                assert position(fast) == position(event), topology
                assert fast.stats == event.stats, topology
                assert fast.last_category is event.last_category

    def test_an_injected_hang_waits_out_a_stall(self):
        # Find a worker stalled on an empty FIFO for a while, and hang it
        # from the tick that starts the stall, whose consume would block:
        # every engine freezes it only at its first tick that can make
        # progress, after the stall.
        sink = MemoryTraceSink()
        report, workers = simulate_workers("ks", "event", sink=sink)
        seq = {w.name: w.seq for w in workers}
        stall = next(
            span for span in sink.spans
            if span.category is CycleCategory.FIFO_EMPTY and seq[span.worker] > 0
            and span.end - span.start >= 4
        )
        hang = WorkerHangFault(seq[stall.worker], stall.start)
        outcomes = {}
        for engine in ENGINES:
            injector = FaultInjector(FaultPlan(seed=0, kind="hang", faults=(hang,)))
            outcome, made = simulate_workers("ks", engine, injector=injector)
            assert isinstance(outcome, DeadlockError), engine
            hung = next(w for w in made if w.seq == hang.worker_seq)
            assert hung.hung
            outcomes[engine] = outcome, hung
        want, want_hung = outcomes["lockstep"]
        for engine in ("event", "specialized"):
            error, hung = outcomes[engine]
            assert str(error) == str(want), engine
            assert error.diagnosis.to_dict() == want.diagnosis.to_dict()
            assert error.diagnosis.root_hang == stall.worker
        fast, event = outcomes["specialized"][1], outcomes["event"][1]
        assert fast.stats == event.stats and position(fast) == position(event)
        waited = sum(s.end - s.start for s in sink.spans_for(stall.worker)
                     if s.category is CycleCategory.FIFO_EMPTY and s.end <= stall.end)
        assert fast.stats.fifo_empty_stall_cycles >= waited  # the whole stall ran
