"""Tests for the shared fleet executor (repro.fleet).

The fleet's contract has four legs:

* ``map`` preserves task order, and the serial path runs the *same*
  module-level task function inline — the mechanism behind every
  consumer's "byte-identical at any pool size" guarantee;
* supervision: worker crashes and blown deadlines are retried under a
  deterministic :class:`RetryPolicy`, surface as typed errors when the
  budget is spent, and leave the surviving results byte-identical to an
  unchaosed run (driven here through :mod:`repro.fleet.chaos`);
* ``interned_workload`` stamps out memory-image clones that are
  bit-identical to a fresh functional setup (counters included), one
  set-up run per (kernel, workload) whatever the design, and
  ``interned_check`` returns ``run_check``'s value, interpreting
  ``check`` once per distinct post-run image;
* the two big consumers — DSE sweeps and resilience sweeps — really do
  produce identical reports serially, on a pool, under chaos, and
  across a checkpoint/resume cycle.
"""

import dataclasses
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.dse import Evaluator
from repro.dse.explore import Explorer
from repro.dse.space import ConfigSpace
from repro.dse.strategies import GridStrategy
from repro.faults.sweep import resilience_sweep
from repro.fleet import (
    FleetExecutor,
    RetryPolicy,
    TaskCrashed,
    TaskTimeout,
    chaos,
    interned_check,
    interned_pipeline,
    interned_workload,
)
from repro.errors import CycleBudgetExceeded, InterpError
from repro.frontend import compile_c
from repro.harness import build, runner
from repro.harness.build import compile_kernel, compile_module
from repro.harness.experiments import scalability
from repro.harness.runner import (
    BackendResult,
    Workload,
    run_backend,
    run_check,
    run_hardware,
    run_kernel,
    setup_workload,
)
from repro.hw import AcceleratorSystem, DirectMappedCache, run_on_mips
from repro.interp import Interpreter, reachable_ir
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy
from repro.service.store import ArtifactStore
from repro.telemetry.events import MemoryTraceSink
from repro.transforms import optimize_module
from repro.vsim.cosim import SMOKE_SETUP_ARGS

#: Scaled-down gaussblur: full compile+simulate in tens of milliseconds.
SMALL_BLUR = dataclasses.replace(
    KERNELS_BY_NAME["1D-Gaussblur"], setup_args=[6, 48]
)

#: No-sleep retry policy so supervised-recovery tests stay fast.
FAST_RETRY = RetryPolicy(backoff_base_s=0.0, jitter=0.0)


def _double(x):
    return x * 2


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three")
    return x


def _crash_once(task):
    """Die hard on the first visit to ``sentinel``, succeed after."""
    sentinel, value = task
    if sentinel is not None:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os._exit(17)
    return value * 2


def _crash_always(task):
    if task == "die":
        os._exit(17)
    return task


def _sleep_then_return(task):
    time.sleep(task)
    return task


class TestFleetExecutor:
    def test_serial_map_runs_inline_in_order(self):
        fleet = FleetExecutor(1)
        assert fleet.serial
        assert fleet.map(_double, [3, 1, 2]) == [6, 2, 4]
        # Nothing was spawned for the serial path.
        assert fleet._pool is None

    def test_single_task_runs_inline_even_with_pool_config(self):
        with FleetExecutor(4) as fleet:
            assert fleet.map(_double, [21]) == [42]
            assert fleet._pool is None

    def test_pool_map_preserves_order_and_reuses_pool(self):
        with FleetExecutor(2) as fleet:
            assert fleet.map(_double, list(range(8))) == [
                2 * i for i in range(8)
            ]
            pool = fleet._pool
            assert pool is not None
            assert fleet.map(_double, [5, 4]) == [10, 8]
            assert fleet._pool is pool  # reused, not respawned

    def test_close_is_idempotent_and_pool_recreatable(self):
        fleet = FleetExecutor(2)
        fleet.map(_double, [1, 2])
        fleet.close()
        fleet.close()
        assert fleet.map(_double, [1, 2, 3]) == [2, 4, 6]
        fleet.close()

    def test_processes_floor_is_one(self):
        assert FleetExecutor(0).processes == 1
        assert FleetExecutor(-3).processes == 1

    def test_serial_path_propagates_task_errors(self):
        fleet = FleetExecutor(1)
        with pytest.raises(ValueError, match="three"):
            fleet.map(_fail_on_three, [1, 2, 3])

    def test_futures_pool_is_reusable_executor(self):
        with FleetExecutor(2) as fleet:
            future = fleet.futures_pool.submit(_double, 8)
            assert future.result() == 16


class TestInternedWorkload:
    def test_clone_matches_fresh_setup(self):
        spec = SMALL_BLUR
        module = compile_c(spec.source, spec.name)
        optimize_module(module)
        fresh_mem, fresh_globals, fresh_args = setup_workload(module, spec)
        mem, globals_, args = interned_workload(module, spec)
        assert mem.snapshot() == fresh_mem.snapshot()
        assert mem._brk == fresh_mem._brk
        assert mem.bytes_read == fresh_mem.bytes_read
        assert mem.bytes_written == fresh_mem.bytes_written
        assert len(mem.allocations) == len(fresh_mem.allocations)
        assert globals_ == fresh_globals
        assert args == fresh_args

    def test_clones_are_independent(self):
        spec = SMALL_BLUR
        module = compile_c(spec.source, spec.name)
        optimize_module(module)
        a, globals_a, args_a = interned_workload(module, spec)
        b, globals_b, args_b = interned_workload(module, spec)
        assert a is not b
        before = b.read_bytes(0x1000, 4)
        a.write_bytes(0x1000, b"\xde\xad\xbe\xef")
        assert b.read_bytes(0x1000, 4) == before
        globals_a["poison"] = 1
        assert "poison" not in globals_b
        args_a.append(999)
        assert args_b == list(args_b)

    def test_setup_args_are_part_of_the_key(self):
        spec = SMALL_BLUR
        module = compile_c(spec.source, spec.name)
        optimize_module(module)
        small, _, _ = interned_workload(module, spec)
        bigger = dataclasses.replace(spec, setup_args=[6, 64])
        big, _, _ = interned_workload(module, bigger)
        assert small.snapshot() != big.snapshot()


@pytest.fixture
def interns(monkeypatch):
    """Empty workload and check memos, and a count of the interpreter
    runs behind them: ``{"setup": n, "check": n}``."""
    monkeypatch.setattr(runner, "_WORKLOAD_MEMO", {})
    monkeypatch.setattr(runner, "_CHECK_MEMO", {})
    runs = {"setup": 0, "check": 0}

    def counted(name, fn):
        def run(*args):
            runs[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(runner, "setup_workload", counted("setup", setup_workload))
    monkeypatch.setattr(runner, "run_check", counted("check", run_check))
    return runs


@pytest.fixture
def compiles(monkeypatch):
    """An empty pipeline memo and the ``compile_kernel`` calls behind it."""
    monkeypatch.setattr(build, "_PIPELINE_MEMO", {})
    calls = []

    def counted(spec, policy, n_workers):
        calls.append((policy.value, n_workers))
        return compile_kernel(spec, policy, n_workers)

    monkeypatch.setattr(build, "compile_kernel", counted)
    return calls


def _image(memory, globals_, args):
    return (
        memory.snapshot(), memory._brk, memory.image_key(),
        [(a.addr, a.size, a.site) for a in memory.allocations],
        memory.bytes_read, memory.bytes_written, globals_, args,
    )


def _designs(spec):
    """The plain module and every pipelined one: policies x 2/4 workers."""
    yield compile_module(spec)
    for policy in ReplicationPolicy:
        if policy is ReplicationPolicy.P2 and not spec.supports_p2:
            continue
        for n_workers in (2, 4):
            yield interned_pipeline(spec, policy, n_workers).module


class TestInternedWorkloadIsContentAddressed:
    @pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
    def test_every_design_gets_the_image_a_fresh_setup_builds(
        self, spec, interns
    ):
        for module in _designs(spec):
            assert _image(*interned_workload(module, spec)) == _image(
                *setup_workload(module, spec)
            )
        # ... and one set-up run served every compile key.
        assert interns["setup"] == 1 == len(runner._WORKLOAD_MEMO)

    def test_unseen_source_is_a_miss_as_for_the_pipeline(self, interns):
        spec = SMALL_BLUR
        commented = dataclasses.replace(
            spec, source=spec.source + "\n// cold pass 1\n"
        )
        module = compile_module(spec)
        first = _image(*interned_workload(module, spec))
        assert _image(*interned_workload(module, commented)) == first
        assert _image(*interned_workload(compile_module(commented), spec)) == first
        assert interns["setup"] == 2 == len(runner._WORKLOAD_MEMO)

    def test_setup_that_reaches_rewritten_code_is_keyed_per_design(
        self, interns
    ):
        # A hostile source: set-up runs the accelerated function, which
        # the transform rewrites differently for every design.
        spec = dataclasses.replace(
            SMALL_BLUR,
            source=SMALL_BLUR.source + """
void setup_and_blur(int height, int width) {
    setup(height, width);
    blur_row((double*)kargs[0], (double*)kargs[1], width);
}
""",
            setup_function="setup_and_blur",
        )
        plain = compile_module(spec)
        assert _image(*interned_workload(plain, spec)) == _image(
            *setup_workload(plain, spec)
        )
        designs = [
            interned_pipeline(spec, policy, n_workers).module
            for policy in (ReplicationPolicy.P1, ReplicationPolicy.NONE)
            for n_workers in (2, 4)
        ]
        texts = {reachable_ir(m, spec.setup_function) for m in [plain, *designs]}
        assert len(texts) == 1 + len(designs)
        for module in designs:
            # What a fresh set-up does (a fork needs the simulator), never
            # the plain module's image.
            with pytest.raises(InterpError, match="parallel_fork"):
                setup_workload(module, spec)
            with pytest.raises(InterpError, match="parallel_fork"):
                interned_workload(module, spec)
        assert len(runner._WORKLOAD_MEMO) == 1


def _post_run_image(spec):
    """(module, memory, globals, args): the image a correct run leaves."""
    module = compile_module(spec)
    memory, globals_, args = setup_workload(module, spec)
    Interpreter(module, memory, global_addresses=globals_).call(
        spec.measure_entry, args
    )
    return module, memory, globals_, args


#: benchmarks/layers' dse-sweep grid: 16 points on 4 compile keys.
GRID_16 = ConfigSpace(
    policies=["p1", "none"], n_workers=[2, 4], fifo_depths=[4, 16],
    cache_lines=[128, 512],
)


class TestInternedCheck:
    @pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
    def test_miss_and_hit_return_run_checks_value(self, spec, interns):
        module, memory, globals_, args = _post_run_image(spec)
        expected = run_check(module, memory.clone(), globals_, spec)
        for _ in range(3):
            got = interned_check(module, memory.clone(), globals_, spec)
            assert type(got) is type(expected) and got == expected
        assert interns["check"] == 1
        # A design that leaves the same image shares the run.
        pipelined = interned_pipeline(spec, ReplicationPolicy.P1, 2).module
        assert interned_check(pipelined, memory, globals_, spec) == expected
        assert interns["check"] == 1

    def test_one_flipped_byte_is_a_miss_and_is_really_checked(self, interns):
        spec = SMALL_BLUR
        module, memory, globals_, args = _post_run_image(spec)
        clean = interned_check(module, memory.clone(), globals_, spec)
        out_row = args[1]  # blur_row's output: check sums it

        inside = memory.clone()
        inside.write_bytes(out_row + 6, b"\x55")
        assert out_row + 6 < inside._brk
        expected = run_check(module, inside.clone(), globals_, spec)
        assert expected != clean
        assert interned_check(module, inside, globals_, spec) == expected
        assert interns["check"] == 2

        beyond = memory.clone()
        beyond.write_bytes(beyond._brk + 64, b"\x01")
        assert beyond.snapshot() == memory.snapshot()
        assert interned_check(module, beyond, globals_, spec) == clean
        assert interns["check"] == 3

        moved = memory.clone()
        moved.malloc(8)
        assert interned_check(module, moved, globals_, spec) == clean
        assert interns["check"] == 4

    def test_sixteen_point_grid_sets_up_and_checks_once(self, interns, compiles):
        spec = KERNELS_BY_NAME["ks"]
        evaluator = Evaluator(spec, engine="specialized")
        results = [evaluator.evaluate(point) for point in GRID_16.grid()]
        assert len(results) == 16 and all(r.ok for r in results)
        assert len({r.checksum for r in results}) == 1
        assert interns == {"setup": 1, "check": 1}
        # ... and compiles once per (policy, workers): FIFO depth is bound
        # on the simulator, so the grid's two depths share each pipeline.
        assert sorted(compiles) == [
            ("none", 2), ("none", 4), ("p1", 2), ("p1", 4)
        ]
        assert len(build._PIPELINE_MEMO) == 4

    def test_two_threads_racing_on_one_key_agree(self, interns):
        spec = SMALL_BLUR
        module, memory, globals_, args = _post_run_image(spec)
        expected = run_check(module, memory.clone(), globals_, spec)
        barrier = threading.Barrier(2)
        got = []

        def check():
            image = memory.clone()
            barrier.wait(timeout=30)
            got.append(interned_check(module, image, globals_, spec))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=check) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [expected, expected]
        assert len(runner._CHECK_MEMO) == 1
        assert interned_check(module, memory, globals_, spec) == expected
        assert interns["check"] <= 2


class TestOneWorkloadPath:
    """``run_backend`` and ``run_hardware`` memoise their own set-up and
    check: no caller chooses, and a hit is what the interpreter returns."""

    BACKENDS = ("mips", "legup", "cgpa-p1", "cgpa-p2")

    @staticmethod
    def _small(spec):
        return dataclasses.replace(
            spec, setup_args=SMOKE_SETUP_ARGS[spec.name])

    @staticmethod
    def _scored(result):
        return (
            result.cycles, result.checksum, result.return_value,
            result.aluts, result.energy_uj,
            result.sim.to_dict() if result.sim else None,
        )

    @staticmethod
    def _reference(spec, backend):
        """The backend with both interpreter runs done afresh."""
        reference = Workload(setup_workload, run_check)
        if backend == "mips":
            module = compile_module(spec)
            memory, globals_, args = reference.setup(module, spec)
            mips = run_on_mips(
                module, spec.measure_entry, args, memory,
                cache=DirectMappedCache(), global_addresses=globals_,
            )
            return BackendResult(
                backend, mips.cycles,
                reference.check(module, memory, globals_, spec),
                mips.return_value, mips_instructions=mips.instructions,
            )
        design = compile_module(spec) if backend == "legup" else compile_kernel(
            spec, ReplicationPolicy(backend.removeprefix("cgpa-")), 4)
        return run_hardware(
            spec, backend, design, DirectMappedCache(ports=8),
            workload=reference,
        )

    @pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
    def test_a_kernels_backends_share_one_setup_and_one_check(
        self, spec, interns
    ):
        run = run_kernel(self._small(spec), ("mips", "legup", "cgpa-p1"))
        assert len(run.results) == 3
        assert interns == {"setup": 1, "check": 1}

    def test_scalability_sets_up_and_checks_once(self, interns):
        points = scalability(self._small(KERNELS_BY_NAME["em3d"]))
        assert [p.n_workers for p in points] == [1, 2, 4, 8]
        assert interns == {"setup": 1, "check": 1}

    @pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
    def test_miss_hit_and_fresh_runs_agree(self, spec, interns):
        spec = self._small(spec)
        for backend in self.BACKENDS:
            if backend == "cgpa-p2" and not spec.supports_p2:
                continue
            missed = run_backend(spec, backend)
            runs = dict(interns)
            hit = run_backend(spec, backend)
            assert interns == runs  # the second call interpreted nothing
            fresh = self._reference(spec, backend)
            assert self._scored(missed) == self._scored(hit) == self._scored(
                fresh), backend
            assert missed.mips_instructions == fresh.mips_instructions

    def test_a_corrupting_design_is_scored_by_a_real_check(
        self, interns, monkeypatch
    ):
        spec = SMALL_BLUR
        clean = run_backend(spec, "cgpa-p1")
        assert run_backend(spec, "cgpa-p1").checksum == clean.checksum
        assert interns == {"setup": 1, "check": 1}
        run = AcceleratorSystem.run

        def run_then_flip_one_output_byte(self, entry, args):
            sim = run(self, entry, args)
            self.memory.write_bytes(args[1] + 6, b"\x55")
            return sim

        monkeypatch.setattr(
            AcceleratorSystem, "run", run_then_flip_one_output_byte)
        corrupted = run_backend(spec, "cgpa-p1")
        assert interns == {"setup": 1, "check": 2}
        assert corrupted.checksum != clean.checksum
        assert corrupted.cycles == clean.cycles
        # ... and the pristine image was not the one written to.
        monkeypatch.undo()
        assert self._scored(run_backend(spec, "cgpa-p1")) == self._scored(clean)

    def test_sink_and_cycle_budget_behave_the_same_on_a_hit(self, interns):
        spec = SMALL_BLUR
        cold_sink = MemoryTraceSink()
        cold = run_backend(spec, "cgpa-p1", sink=cold_sink)
        warm_sink = MemoryTraceSink()
        warm = run_backend(spec, "cgpa-p1", sink=warm_sink)
        assert interns == {"setup": 1, "check": 1}
        assert cold_sink.spans and cold_sink.cache_accesses
        for trace in ("spans", "state_changes", "occupancy", "cache_accesses"):
            assert getattr(warm_sink, trace) == getattr(cold_sink, trace)
        assert warm_sink.total_cycles == cold_sink.total_cycles == cold.cycles
        assert self._scored(warm) == self._scored(cold)
        with pytest.raises(CycleBudgetExceeded) as info:
            run_backend(spec, "cgpa-p1", max_cycles=cold.cycles // 2)
        assert info.value.max_cycles == cold.cycles // 2
        # The overrun wrote to its own clone and scored nothing.
        assert interns == {"setup": 1, "check": 1}
        assert self._scored(run_backend(spec, "cgpa-p1")) == self._scored(cold)


_GRID_RSS_CHILD = """
import re
from repro.dse import ConfigSpace, Evaluator
from repro.kernels import KERNELS_BY_NAME

space = ConfigSpace(policies=["p1", "none"], n_workers=[2, 4],
                    fifo_depths=[4, 16], cache_lines=[128, 512])
evaluator = Evaluator(KERNELS_BY_NAME["ks"], engine="specialized")
assert all(evaluator.evaluate(point).ok for point in space.grid())
# The address space's own high-water mark: ru_maxrss would carry over
# the test runner's, which the child inherits across exec.
print(re.search(r"VmHWM:\\s+(\\d+) kB", open("/proc/self/status").read()).group(1))
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs Linux procfs"
)
def test_sweep_process_stays_under_100_mib():
    """A 16 MiB image per point, or per interned entry, cannot come back
    unnoticed: the same sweep peaked at 189 MiB when images were 16 MiB
    and at about 30 MiB sized to their contents."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _GRID_RSS_CHILD],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 100


class TestConsumersArePoolSizeInvariant:
    def test_dse_sweep_bytes_identical_at_any_pool_size(self):
        space = ConfigSpace(
            policies=["p1"], n_workers=[1, 2], fifo_depths=[4, 16],
            private_caches=[False], cache_lines=[512], cache_ports=[8],
        )

        def sweep(processes):
            with Explorer(
                SMALL_BLUR, space=space, processes=processes,
                max_cycles=2_000_000,
            ) as explorer:
                result = explorer.run(GridStrategy())
            return json.dumps(result.to_json_dict(), sort_keys=True)

        serial = sweep(1)
        assert sweep(2) == serial

    def test_resilience_report_bytes_identical_at_any_pool_size(self):
        serial = resilience_sweep(SMALL_BLUR, n_plans=2, seed=5, processes=1)
        pooled = resilience_sweep(SMALL_BLUR, n_plans=2, seed=5, processes=3)
        assert serial.format() == pooled.format()
        assert serial.to_dict() == pooled.to_dict()

    def test_resilience_sweep_accepts_shared_fleet(self):
        with FleetExecutor(2) as fleet:
            a = resilience_sweep(
                SMALL_BLUR, n_plans=1, seed=1, fleet=fleet
            )
            b = resilience_sweep(
                SMALL_BLUR, n_plans=1, seed=1, fleet=fleet
            )
        assert a.to_dict() == b.to_dict()

    def test_explorer_external_fleet_not_closed(self):
        fleet = FleetExecutor(1)
        space = ConfigSpace(
            policies=["p1"], n_workers=[1], fifo_depths=[4],
            private_caches=[False], cache_lines=[512], cache_ports=[8],
        )
        explorer = Explorer(SMALL_BLUR, space=space, fleet=fleet)
        explorer.run(GridStrategy())
        explorer.close()  # must not shut down the shared fleet
        assert fleet.map(_double, [2]) == [4]


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay_s(3, 1) == policy.delay_s(3, 1)
        assert policy.delay_s(3, 1) != policy.delay_s(4, 1)
        ceiling = policy.backoff_max_s * (1.0 + policy.jitter)
        delays = [policy.delay_s(0, attempt) for attempt in range(1, 12)]
        assert all(0.0 < delay <= ceiling for delay in delays)
        assert delays[0] >= policy.backoff_base_s

    def test_seed_perturbs_only_the_jitter(self):
        a = RetryPolicy(seed=1).delay_s(0, 1)
        b = RetryPolicy(seed=2).delay_s(0, 1)
        assert a != b
        base = RetryPolicy(jitter=0.0, seed=1).delay_s(0, 1)
        assert base == RetryPolicy(jitter=0.0, seed=2).delay_s(0, 1)
        assert base == pytest.approx(RetryPolicy().backoff_base_s)


class TestSupervision:
    def test_worker_crash_is_retried_and_results_recover(self, tmp_path):
        sentinel = str(tmp_path / "crash-once")
        tasks = [(None, 1), (sentinel, 2), (None, 3)]
        with FleetExecutor(2, retry=FAST_RETRY) as fleet:
            assert fleet.map(_crash_once, tasks) == [2, 4, 6]
            kinds = [event.kind for event in fleet.events]
            assert "task-crashed" in kinds
            assert "pool-respawn" in kinds
            assert "retry" in kinds
            assert fleet.respawns >= 1
            # The respawned pool keeps working for later maps.
            assert fleet.map(_double, [5, 6]) == [10, 12]

    def test_persistent_crasher_exhausts_budget(self):
        retry = dataclasses.replace(FAST_RETRY, max_retries=1)
        with FleetExecutor(2, retry=retry) as fleet:
            with pytest.raises(TaskCrashed) as info:
                fleet.map(_crash_always, ["die", "ok"])
        assert info.value.task_index == 0
        assert info.value.attempts == 2  # first run + one retry

    def test_deadline_timeout_is_typed_and_attributed(self):
        retry = dataclasses.replace(FAST_RETRY, max_retries=0)
        with FleetExecutor(2, retry=retry) as fleet:
            with pytest.raises(TaskTimeout) as info:
                fleet.map(_sleep_then_return, [30.0, 0.001], deadline_s=0.3)
        assert info.value.task_index == 0
        assert info.value.deadline_s == 0.3
        assert info.value.attempts == 1

    def test_task_exceptions_are_not_retried(self):
        with FleetExecutor(2, retry=FAST_RETRY) as fleet:
            with pytest.raises(ValueError, match="three"):
                fleet.map(_fail_on_three, [1, 2, 3, 4])
            assert fleet.events == []

    def test_supervision_events_are_journaled_as_fleet_envelopes(
        self, tmp_path
    ):
        from repro.obs import EnvelopeWriter

        writer = EnvelopeWriter(tmp_path / "store")
        sentinel = str(tmp_path / "crash-once")
        fleet = FleetExecutor(
            2, retry=FAST_RETRY, envelopes=writer,
            context={"subsystem": "test", "kernel": "ks"},
        )
        with fleet:
            assert fleet.map(_crash_once, [(sentinel, 1), (None, 2)]) == [2, 4]
        lines = [
            json.loads(line)
            for line in writer.journal_path.read_text().splitlines()
        ]
        assert lines and all(line["kind"] == "fleet" for line in lines)
        statuses = {line["status"] for line in lines}
        assert {"task-crashed", "pool-respawn", "retry"} <= statuses
        assert all(line["extra"]["subsystem"] == "test" for line in lines)
        assert all(line["kernel"] == "ks" for line in lines)


class TestChaosInjection:
    def test_hooks_are_noops_without_a_plan(self, monkeypatch):
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        monkeypatch.setattr(chaos, "_PLAN_CACHE", None)
        chaos.fire_task_hooks(0)  # must not raise, sleep, or kill

    def test_kill_worker_chaos_leaves_dse_sweep_bytes_identical(
        self, tmp_path, monkeypatch
    ):
        space = ConfigSpace(
            policies=["p1"], n_workers=[1, 2], fifo_depths=[4, 16],
            private_caches=[False], cache_lines=[512], cache_ports=[8],
        )

        def sweep(processes):
            with Explorer(
                SMALL_BLUR, space=space, processes=processes,
                max_cycles=2_000_000,
            ) as explorer:
                result = explorer.run(GridStrategy())
            return json.dumps(result.to_json_dict(), sort_keys=True)

        clean = sweep(1)
        plan_path = tmp_path / "plan.json"
        chaos.write_plan(
            plan_path, [{"kind": "kill-worker", "task_index": 0}]
        )
        monkeypatch.setattr(chaos, "_PLAN_CACHE", None)
        monkeypatch.setenv(chaos.ENV_VAR, str(plan_path))
        assert sweep(2) == clean
        # The kill fired exactly once: its claim marker exists, and the
        # retried task completed without re-firing.
        assert (tmp_path / "plan.json.markers" / "ev0").exists()

    def test_corrupt_artifact_selects_by_match_and_mode(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        from repro.service.store import content_key

        keep_key = content_key({"name": "keep"})
        doom_key = content_key({"name": "doomed"})
        store.put(keep_key, {"name": "keep"})
        store.put(doom_key, {"name": "doomed"})
        corrupted = chaos.corrupt_artifact(store.root, match="doomed")
        assert corrupted == doom_key
        reader = ArtifactStore(tmp_path / "store")
        assert reader.get(doom_key) is None  # fails integrity, miss
        assert reader.get(keep_key) == {"name": "keep"}
        assert chaos.corrupt_artifact(store.root, key="nonexistent") is None


class TestResumableSweeps:
    def test_faults_resume_replays_checkpoints_byte_identically(
        self, tmp_path
    ):
        store = ArtifactStore(tmp_path / "ckpt")
        full = resilience_sweep(SMALL_BLUR, n_plans=1, seed=3, store=store)
        assert full.replayed == 0
        checkpoints = sorted((tmp_path / "ckpt").glob("*/*.json"))
        assert len(checkpoints) == len(full.records)
        # Drop one checkpoint: resume replays the rest, recomputes one.
        victim = checkpoints[0]
        sidecar = victim.parent / (victim.name + ".sha256")
        victim.unlink()
        if sidecar.exists():
            sidecar.unlink()
        # Fresh store instance: a cold reader, like a restarted process.
        resumed = resilience_sweep(
            SMALL_BLUR, n_plans=1, seed=3, store=ArtifactStore(tmp_path / "ckpt")
        )
        assert resumed.replayed == len(full.records) - 1
        assert resumed.to_dict() == full.to_dict()
        assert resumed.format() == full.format()

    def test_a_second_sweep_on_one_store_replays_every_plan(self, tmp_path):
        store = ArtifactStore(tmp_path / "ckpt")
        first = resilience_sweep(SMALL_BLUR, n_plans=1, seed=3, store=store)
        again = resilience_sweep(SMALL_BLUR, n_plans=1, seed=3, store=store)
        assert first.replayed == 0
        assert again.replayed == len(again.records) == len(first.records)
        assert again.to_dict() == first.to_dict()
        assert again.format() == first.format()

    def test_sigkilled_sweep_resumes_byte_identically(self, tmp_path):
        store_root = tmp_path / "ckpt"
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        script = (
            "import dataclasses\n"
            "from repro.faults.sweep import resilience_sweep\n"
            "from repro.kernels import KERNELS_BY_NAME\n"
            "from repro.service.store import ArtifactStore\n"
            "spec = dataclasses.replace(\n"
            "    KERNELS_BY_NAME['1D-Gaussblur'], setup_args=[6, 48])\n"
            "resilience_sweep(spec, n_plans=2, seed=5, processes=2,\n"
            f"                 store=ArtifactStore({str(store_root)!r}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        # A session of its own, so the kill takes the sweep's pool workers
        # with it, as a killed host would.
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and proc.poll() is None:
                if list(store_root.glob("*/*.json")):
                    break  # at least one checkpoint landed: kill mid-sweep
                time.sleep(0.02)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the whole group has exited already
            proc.wait(timeout=30)
        clean = resilience_sweep(SMALL_BLUR, n_plans=2, seed=5)
        resumed = resilience_sweep(
            SMALL_BLUR, n_plans=2, seed=5, processes=2,
            store=ArtifactStore(store_root),
        )
        assert resumed.replayed >= 1
        assert resumed.to_dict() == clean.to_dict()
        assert resumed.format() == clean.format()
