"""Tests for the design-space exploration subsystem (repro.dse)."""

import dataclasses
import json

import pytest

from repro.dse import (
    ConfigSpace,
    DesignPoint,
    EvalResult,
    Evaluator,
    Explorer,
    GridStrategy,
    HillClimbStrategy,
    RandomStrategy,
    dominates,
    pareto_frontier,
    result_key,
)
from repro.errors import CgpaError
from repro.cost import COST_MODEL_VERSION
from repro.dse.evaluate import CACHE_SCHEMA_VERSION
from repro.harness.__main__ import main
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.service import ArtifactStore
from repro.service.store import content_key

#: Scaled-down ks: the whole compile+simulate+cost path in ~50 ms.
SMALL_KS = dataclasses.replace(KERNELS_BY_NAME["ks"], setup_args=[10, 10])

#: A 6-point space that still varies compile and simulator knobs.
SMALL_SPACE = dict(
    policies=["p1"],
    n_workers=[1, 2],
    fifo_depths=[4],
    private_caches=[False],
    cache_lines=[64, 128, 256],
    cache_ports=[8],
)


@pytest.fixture(scope="module")
def small_sweep():
    """One serial grid sweep of the small space, shared across tests."""
    explorer = Explorer(SMALL_KS, ConfigSpace(**SMALL_SPACE), processes=1)
    return explorer.run(GridStrategy())


class TestDesignPoint:
    def test_compile_key_ignores_timing_knobs(self):
        # FIFO depth and the cache organisation belong to the instantiated
        # machine: they move cycles, never the compiled pipeline.
        a = DesignPoint(fifo_depth=4, cache_lines=64, cache_ports=1)
        b = DesignPoint(fifo_depth=16, cache_lines=512, private_caches=True)
        assert a.compile_key == b.compile_key == ("p1", 4)

    def test_compile_key_tracks_partition_and_workers(self):
        base = DesignPoint()
        assert base.compile_key != DesignPoint(policy="p2").compile_key
        assert base.compile_key != DesignPoint(n_workers=8).compile_key

    def test_dict_roundtrip(self):
        point = DesignPoint(policy="none", n_workers=8, private_caches=True)
        assert DesignPoint.from_dict(point.to_dict()) == point

    def test_from_dict_drops_knobs_it_does_not_know(self):
        point = DesignPoint(policy="none", fifo_depth=2)
        newer = {**point.to_dict(), "new_knob": 3}
        assert DesignPoint.from_dict(newer) == point

    def test_label_mentions_every_knob(self):
        label = DesignPoint(policy="p2", n_workers=8, fifo_depth=2).label
        assert "p2" in label and "w8" in label and "d2" in label


class TestConfigSpace:
    def test_grid_is_deterministic_and_complete(self):
        space = ConfigSpace(**SMALL_SPACE)
        grid = space.grid()
        assert len(grid) == space.size == 6
        assert grid == space.grid()
        assert len(set(grid)) == len(grid)

    @pytest.mark.parametrize("bad", [
        dict(n_workers=[0]),
        dict(fifo_depths=[4, 0]),
        dict(policies=["p3"]),
        dict(cache_lines=[100]),       # not a power of two
        dict(n_workers=[]),
        # bool is an int; the service contract's _is_pos_int rejects it.
        dict(n_workers=[True]),
        dict(fifo_depths=[4, True]),
        dict(cache_lines=[True]),
        dict(cache_ports=[True]),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(CgpaError):
            ConfigSpace(**{**SMALL_SPACE, **bad})

    def test_sample_is_seeded_subset(self):
        space = ConfigSpace(**SMALL_SPACE)
        sample = space.sample(3, seed=7)
        assert sample == space.sample(3, seed=7)
        assert len(sample) == 3
        assert set(sample) <= set(space.grid())
        # Oversampling degrades to the full grid.
        assert space.sample(99) == space.grid()

    def test_neighbors_are_single_knob_moves(self):
        space = ConfigSpace(**SMALL_SPACE)
        point = DesignPoint(policy="p1", n_workers=1, fifo_depth=4,
                            cache_lines=128)
        neighbors = space.neighbors(point)
        assert DesignPoint(policy="p1", n_workers=2, fifo_depth=4,
                           cache_lines=128) in neighbors
        for n in neighbors:
            diff = [k for k, v in n.to_dict().items()
                    if v != getattr(point, k)]
            assert len(diff) == 1


class TestEvaluator:
    def test_ok_result_is_fully_populated(self, small_sweep):
        result = small_sweep.results[0]
        assert result.ok
        assert result.cycles > 0
        assert result.total_aluts > 0
        assert result.energy_uj > 0
        assert result.signature.startswith("S-P-S/p1/")
        assert sum(result.stall_cycles.values()) > 0
        assert result.error is None

    def test_deadlocking_fifo_depth_is_captured(self):
        # Depth-0 FIFOs can never be pushed: the producer blocks full, the
        # consumer blocks empty — a guaranteed deadlock the sweep must
        # record rather than re-raise.
        result = Evaluator(SMALL_KS).evaluate(DesignPoint(fifo_depth=0))
        assert result.status == "deadlock"
        assert "deadlock" in result.error
        assert result.cycles is None
        # The watchdog reads the depth off the buffer the run instantiated.
        assert "of depth 0)" in result.diagnosis
        assert result.signature.endswith("/d0")

    def test_cycle_budget_exhaustion_is_timeout(self):
        result = Evaluator(SMALL_KS, max_cycles=50).evaluate(DesignPoint())
        assert result.status == "timeout"
        assert "max_cycles" in result.error

    def test_failed_points_excluded_from_frontier(self):
        evaluator = Evaluator(SMALL_KS, max_cycles=50)
        good = Evaluator(SMALL_KS).evaluate(DesignPoint())
        bad = evaluator.evaluate(DesignPoint())
        dead = Evaluator(SMALL_KS).evaluate(DesignPoint(fifo_depth=0))
        frontier = pareto_frontier([good, bad, dead])
        assert frontier == [good]

    def test_compiled_pipeline_reused_across_sim_knobs(self):
        evaluator = Evaluator(SMALL_KS)
        points = [DesignPoint(cache_lines=n) for n in (64, 128, 256)]
        compiled = [evaluator.compile(p) for p in points]
        assert compiled[0] is compiled[1] is compiled[2]
        assert evaluator.compile(DesignPoint(n_workers=2)) is not compiled[0]
        # The intern is process-wide: a second evaluator shares it.
        assert Evaluator(SMALL_KS).compile(points[0]) is compiled[0]

    def test_eval_result_dict_roundtrip(self, small_sweep):
        result = small_sweep.results[0]
        assert EvalResult.from_dict(result.to_dict()) == result


class TestPareto:
    def _mk(self, cycles, aluts, energy, tag="x"):
        return EvalResult(
            point=DesignPoint(fifo_depth=cycles), status="ok",
            cycles=cycles, total_aluts=aluts, energy_uj=energy,
        )

    def test_dominated_points_dropped(self):
        best = self._mk(10, 10, 1.0)
        worse = self._mk(20, 20, 2.0)
        tradeoff = self._mk(5, 40, 3.0)
        frontier = pareto_frontier([worse, best, tradeoff])
        assert best in frontier and tradeoff in frontier
        assert worse not in frontier

    def test_frontier_points_are_mutually_undominated(self, small_sweep):
        frontier = small_sweep.frontier()
        assert frontier
        for a in frontier:
            for b in frontier:
                assert not dominates(a, b)

    def test_strict_improvement_required(self):
        a = self._mk(10, 10, 1.0)
        b = self._mk(10, 10, 1.0)
        assert not dominates(a, b) and not dominates(b, a)
        assert len(pareto_frontier([a, b])) == 2


class TestResultKey:
    def test_key_covers_kernel_config_and_budget(self):
        base = result_key(SMALL_KS, DesignPoint(), 1000, "event")
        other_kernel = dataclasses.replace(SMALL_KS, source=SMALL_KS.source + "\n")
        assert result_key(other_kernel, DesignPoint(), 1000, "event") != base
        assert result_key(SMALL_KS, DesignPoint(n_workers=2), 1000,
                          "event") != base
        assert result_key(SMALL_KS, DesignPoint(), 2000, "event") != base
        assert result_key(SMALL_KS, DesignPoint(), 1000, "lockstep") != base

    def test_digests_pinned(self):
        # Both keys splice KernelSpec.key_fields() into their payload.  The
        # result key is the one the hand-listed fields gave, so every stored
        # result keeps its address.  The job key changed once, when
        # "engine" left the simulate options: the job contract names no
        # engine, so one simulate job has one key, not one per engine.
        from repro.service.contracts import JobRequest

        ks = KERNELS_BY_NAME["ks"]
        assert result_key(ks, DesignPoint(), 50_000_000, "specialized") == (
            "ae7e96f728d7157c270cdfa2941ff7cd1323b932c041860d420a8fc4776ae5d5"
        )
        assert JobRequest.make("simulate", "ks").key == (
            "42981fa68d811d1836e84f52a60f7d15ff1f23bd4daafdf60d2e3456f1407a52"
        )

    def test_keys_equal_the_content_key_of_the_whole_payload(self):
        # result_key encodes the kernel once and hashes each point into a
        # copy; the digest must be the plain content_key, byte for byte.
        # Quotes, backslashes, non-ASCII and the split marker itself.
        tail = '\n// "q" \\ \\" \u00e9\u6f22 "point": null\n'
        odd = dataclasses.replace(SMALL_KS, source=SMALL_KS.source + tail)
        grid = ConfigSpace(
            policies=["p1", "none"], n_workers=[2, 4], fifo_depths=[4, 16],
            cache_lines=[128, 512], private_caches=[False, True],
        ).grid()
        for spec in [*ALL_KERNELS, odd]:
            for max_cycles, engine in ((50_000_000, "specialized"), (7, "event")):
                for point in grid:
                    key = result_key(spec, point, max_cycles, engine)
                    assert key == content_key({
                        "schema": CACHE_SCHEMA_VERSION,
                        "cost_model": COST_MODEL_VERSION,
                        **spec.key_fields(),
                        "point": point.to_dict(),
                        "max_cycles": max_cycles,
                        "engine": engine,
                    }), (spec.name, point)

    def test_corrupt_entry_is_a_miss_even_for_its_writer(self, tmp_path):
        # Without the warm LRU, disk is the single source of truth.
        cache = ArtifactStore(tmp_path, lru_entries=0)
        key = result_key(SMALL_KS, DesignPoint(), 1000, "event")
        cache.put(key, {"status": "ok"})
        assert cache.get(key) == {"status": "ok"}
        cache.path(key).write_text("{truncated")
        assert cache.get(key) is None


class TestExplorer:
    def test_parallel_frontier_equals_serial(self, small_sweep, tmp_path):
        parallel = Explorer(
            SMALL_KS, ConfigSpace(**SMALL_SPACE), processes=4
        ).run(GridStrategy())
        serial_json = json.dumps(small_sweep.to_json_dict(), sort_keys=True)
        parallel_json = json.dumps(parallel.to_json_dict(), sort_keys=True)
        assert serial_json == parallel_json

    def test_warm_cache_skips_resimulation(self, tmp_path):
        space = ConfigSpace(**SMALL_SPACE)
        cache = ArtifactStore(tmp_path, lru_entries=0)
        cold = Explorer(SMALL_KS, space, cache=cache).run(GridStrategy())
        assert cold.cache_hits == 0 and cold.cache_misses == len(cold.results)
        warm = Explorer(SMALL_KS, space, cache=cache).run(GridStrategy())
        assert warm.cache_misses == 0
        assert warm.hit_rate == 1.0  # >= the 95% incrementality bar
        assert all(r.from_cache for r in warm.results)
        # Cache provenance must not leak into the deterministic report.
        assert (json.dumps(warm.to_json_dict(), sort_keys=True)
                == json.dumps(cold.to_json_dict(), sort_keys=True))

    def test_entry_with_an_unknown_point_knob_is_a_hit(self, tmp_path):
        # A newer schema's entry (one more knob on the point) must load,
        # not raise TypeError out of a warm sweep.
        space = ConfigSpace(**SMALL_SPACE)
        cache = ArtifactStore(tmp_path, lru_entries=0)
        explorer = Explorer(SMALL_KS, space, cache=cache)
        cold = explorer.run(GridStrategy())
        first = cold.results[0]
        key = result_key(SMALL_KS, first.point, explorer.max_cycles,
                         explorer.engine)
        entry = cache.get(key)
        entry["point"]["new_knob"] = 3
        cache.put(key, entry)
        assert EvalResult.from_dict(cache.get(key)) == first
        warm = Explorer(SMALL_KS, space, cache=cache).run(GridStrategy())
        assert warm.cache_misses == 0
        assert warm.results == cold.results

    def test_cache_invalidated_by_workload_change(self, tmp_path):
        cache = ArtifactStore(tmp_path, lru_entries=0)
        space = ConfigSpace(**SMALL_SPACE)
        Explorer(SMALL_KS, space, cache=cache).run(GridStrategy())
        bigger = dataclasses.replace(SMALL_KS, setup_args=[12, 12])
        second = Explorer(bigger, space, cache=cache).run(GridStrategy())
        assert second.cache_hits == 0

    def test_hillclimb_respects_budget_and_finds_descent(self):
        space = ConfigSpace(policies=["p1"], n_workers=[1, 2, 4],
                            fifo_depths=[2, 4, 16])
        strategy = HillClimbStrategy(objective="cycles", max_evals=6)
        sweep = Explorer(SMALL_KS, space).run(strategy)
        assert 0 < len(sweep.results) <= 6
        assert strategy.best is not None
        by_point = {r.point: r for r in sweep.results}
        start_cycles = sweep.results[0].cycles
        # Greedy descent: the resting point is evaluated and no slower
        # than the seed configuration it started from.
        assert by_point[strategy.best].cycles <= start_cycles

    def test_random_strategy_is_reproducible(self):
        space = ConfigSpace(**SMALL_SPACE)
        a = Explorer(SMALL_KS, space).run(RandomStrategy(3, seed=5))
        b = Explorer(SMALL_KS, space).run(RandomStrategy(3, seed=5))
        assert [r.point for r in a.results] == [r.point for r in b.results]
        assert len(a.results) == 3


class TestCli:
    def test_rejects_nonpositive_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workers", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_rejects_nonpositive_fifo_depth(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "ks", "--fifo-depth", "-2"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_dse_rejects_bad_grid_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["dse", "ks", "--fifo-depths", "16,0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_dse_rejects_bad_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["dse", "ks", "--policies", "p9"])
        err = capsys.readouterr().err
        assert "policies" in err and "p9" in err

    def test_dse_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(KERNELS_BY_NAME, "ks", SMALL_KS)
        rc = main([
            "dse", "ks", "--strategy", "grid",
            "--policies", "p1", "--workers-list", "1,2",
            "--fifo-depths", "4", "--processes", "2",
            "--store", str(tmp_path / "store"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        # The sweep JSON comes back out of the store's journal.
        assert main(["obs", "query", str(tmp_path / "store"),
                     "--kind", "dse-sweep", "--json"]) == 0
        (envelope,) = json.loads(capsys.readouterr().out)
        payload = envelope["payload"]
        assert payload["kernel"] == "ks"
        assert payload["n_points"] == 2
        assert payload["frontier"]
