"""Differential tests: the specialized engine vs event and lockstep.

The specialized engine (:mod:`repro.hw.specialize`) compiles each
worker's FSM schedule into generated Python closures — per-state
dispatch resolved at build time, operand slots pre-indexed, pure
compute runs batched into one tick — so the hot path stops walking
``Instruction`` objects.  None of that is allowed to be observable:
the contract is *bit-identical* ``SimReport``\\ s against both the
event engine and the lockstep oracle on every kernel and policy —
cycles, per-worker stall breakdowns, op counters, cache and FIFO
statistics, liveout checksums — plus identical failure behaviour
(budget exhaustion at the same cycle, identical trace spans when a
sink disables batching).
"""

import dataclasses

import pytest

from repro.errors import CycleBudgetExceeded
from repro.fleet import interned_workload
from repro.frontend import compile_c
from repro.hw import (
    AcceleratorSystem,
    DirectMappedCache,
    MemoryTraceSink,
    specialized_for,
)
from repro.interp import Interpreter, Memory
from repro.ir import I32
from repro.kernels import ALL_KERNELS, KARGS_GLOBAL, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy, cgpa_compile
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


def compiled_kernel(name: str, policy: str = "p1", n_workers: int = 4,
                    fifo_depth: int = 16):
    key = (name, policy, n_workers, fifo_depth)
    if key not in _COMPILED:
        spec = small_spec(name)
        module = compile_c(spec.source, spec.name)
        optimize_module(module)
        _COMPILED[key] = cgpa_compile(
            module, spec.accel_function, shapes=spec.shapes_for(module),
            policy=ReplicationPolicy(policy), n_workers=n_workers,
            fifo_depth=fifo_depth,
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
        # summing to the total cycle count (the conservation law the
        # invariant monitor enforces on unbatched engines).
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
