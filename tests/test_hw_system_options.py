"""Tests for accelerator-system options: private caches, reinvocation."""

import dataclasses

import pytest

from repro.frontend import compile_c
from repro.harness.runner import setup_workload
from repro.hw import AcceleratorSystem, DirectMappedCache
from repro.kernels import KS
from repro.pipeline import ReplicationPolicy, cgpa_compile
from repro.transforms import optimize_module

SMALL_KS = dataclasses.replace(KS, setup_args=[8, 8])


def simulate(private_caches: bool, n_workers: int = 4):
    module = compile_c(SMALL_KS.source, "ks")
    optimize_module(module)
    compiled = cgpa_compile(
        module, "kernel", shapes=SMALL_KS.shapes_for(module),
        policy=ReplicationPolicy.P1, n_workers=n_workers,
    )
    memory, globals_, args = setup_workload(compiled.module, SMALL_KS)
    system = AcceleratorSystem(
        compiled.module, memory,
        channels=compiled.result.channels,
        cache=DirectMappedCache(ports=8),
        global_addresses=globals_,
        private_caches=private_caches,
    )
    sim = system.run("kernel", args)
    return system, sim


class TestPrivateCaches:
    def test_results_identical_to_shared(self):
        _, shared = simulate(False)
        _, private = simulate(True)
        assert shared.return_value == private.return_value

    def test_private_slices_created_per_worker(self):
        system, _ = simulate(True)
        # 1 top + 1 seq + 4 parallel + 1 seq = 7 workers, each a slice.
        assert len(system._private_cache_pool) == 7

    def test_slices_are_single_ported_quarters(self):
        system, _ = simulate(True)
        for slice_ in system._private_cache_pool:
            assert slice_.ports == 1
            assert slice_.n_lines == system.cache.n_lines // 4

    def test_shared_mode_uses_one_cache(self):
        system, sim = simulate(False)
        assert not system._private_cache_pool
        assert sim.cache_stats.accesses > 0

    def test_shared_cache_untouched_in_private_mode(self):
        system, sim = simulate(True)
        assert system.cache.stats.accesses == 0
        total_private = sum(
            s.stats.accesses for s in system._private_cache_pool
        )
        assert total_private > 0

    def test_report_aggregates_private_slices(self):
        system, sim = simulate(True)
        # The report must carry the traffic of the private slices, not the
        # idle shared cache (which used to be reported verbatim).
        total_private = sum(
            s.stats.accesses for s in system._private_cache_pool
        )
        assert sim.cache_stats.accesses == total_private
        assert sim.cache_stats.hits == sum(
            s.stats.hits for s in system._private_cache_pool
        )


class TestRunReuse:
    """Calling run() twice on one system must behave like two cold runs."""

    def assert_same_report(self, first, second):
        assert second.cycles == first.cycles
        assert second.return_value == first.return_value
        assert second.invocations == first.invocations
        assert second.worker_stats == first.worker_stats
        assert second.cache_stats == first.cache_stats
        assert second.fifo_stats == first.fifo_stats

    def test_second_run_identical(self):
        for engine in ("event", "lockstep"):
            module = compile_c(SMALL_KS.source, "ks")
            optimize_module(module)
            compiled = cgpa_compile(
                module, "kernel", shapes=SMALL_KS.shapes_for(module),
                policy=ReplicationPolicy.P1, n_workers=4,
            )
            memory, globals_, args = setup_workload(compiled.module, SMALL_KS)
            system = AcceleratorSystem(
                compiled.module, memory,
                channels=compiled.result.channels,
                cache=DirectMappedCache(ports=8),
                global_addresses=globals_,
                engine=engine,
            )
            first = system.run("kernel", args)
            # Before the per-run reset, stale cache tags/stats, FIFO stall
            # counters and liveout registers leaked into the second run.
            second = system.run("kernel", args)
            self.assert_same_report(first, second)

    def test_second_run_identical_private_caches(self):
        module = compile_c(SMALL_KS.source, "ks")
        optimize_module(module)
        compiled = cgpa_compile(
            module, "kernel", shapes=SMALL_KS.shapes_for(module),
            policy=ReplicationPolicy.P1, n_workers=4,
        )
        memory, globals_, args = setup_workload(compiled.module, SMALL_KS)
        system = AcceleratorSystem(
            compiled.module, memory,
            channels=compiled.result.channels,
            cache=DirectMappedCache(ports=8),
            global_addresses=globals_,
            private_caches=True,
        )
        first = system.run("kernel", args)
        second = system.run("kernel", args)
        self.assert_same_report(first, second)
        # The pool holds only the second run's slices, not both runs'.
        assert len(system._private_cache_pool) == 7


class TestWorkerStatsCoverEveryInvocation:
    @pytest.mark.xfail(strict=True, reason=(
        "worker_stats is keyed by worker name, and the workers forked on "
        "each invocation reuse their names (task#w0 ...), so only the last "
        "invocation's stats survive; fixing it changes Table 3 energy"))
    def test_total_ops_counts_every_worker_the_run_created(self, monkeypatch):
        """1D-Gaussblur invokes its accelerated loop 10 times: 51 workers
        run, but the report keeps 6 entries (8 728 of 83 095 ops)."""
        from repro.harness import run_backend
        from repro.kernels import KERNELS_BY_NAME

        created = []
        register = AcceleratorSystem._register_worker

        def record(system, worker):
            created.append(worker)
            register(system, worker)

        monkeypatch.setattr(AcceleratorSystem, "_register_worker", record)
        sim = run_backend(KERNELS_BY_NAME["1D-Gaussblur"], "cgpa-p1").sim
        assert sim.invocations == 10 and len(created) == 51
        assert sum(
            sum(stats.ops_executed.values()) for stats in sim.worker_stats.values()
        ) == sum(
            sum(worker.stats.ops_executed.values()) for worker in created
        )


class TestDefaultEngineIsDeclaredOnce:
    def test_every_engine_default_is_the_one_declaration(self):
        """``repro.hw.DEFAULT_ENGINE`` is what every ``engine=`` parameter
        defaults to, so flipping the default is a one-line change.  The
        designer helpers take no engine: they run the default one."""
        import inspect

        from repro import hw
        from repro.dse import Evaluator
        from repro.dse.explore import Explorer
        from repro.faults.sweep import resilience_sweep
        from repro.harness import experiments, runner

        assert hw.DEFAULT_ENGINE == "specialized" and hw.DEFAULT_ENGINE in hw.ENGINES
        defaults = [
            inspect.signature(fn).parameters["engine"].default
            for fn in (
                AcceleratorSystem.__init__, Evaluator.__init__,
                Explorer.__init__, resilience_sweep, runner.run_hardware,
            )
        ]
        assert all(default is hw.DEFAULT_ENGINE for default in defaults)
        for helper in (runner.run_backend, runner.run_kernel,
                       experiments.run_all_kernels, experiments.scalability):
            assert "engine" not in inspect.signature(helper).parameters

    @pytest.mark.parametrize("kind", ["dse", "faults", "rtl"])
    def test_every_job_flag_defaults_to_the_option_schema(self, kind):
        """A job subcommand declares no default of its own: a bare
        ``<kind> ks`` parses to the schema's defaults (``dse --policies``
        excepted: the CLI sweeps p1,none(+p2) where the service sweeps p1)."""
        from repro.harness.cli.jobs import job_parser
        from repro.service.contracts import normalize_options

        args = job_parser(kind).parse_args(["ks"])
        parsed = {name: getattr(args, name) for name in normalize_options(kind, {})}
        if kind == "dse":
            assert parsed.pop("policies") is None
        expected = normalize_options(kind, {})
        assert parsed == {name: expected[name] for name in parsed}
