"""A sweep shards by design and runs each timing once.

``Explorer`` groups its misses by ``CompiledPipeline.design_key``, so knob
settings that compile to the same pipeline (``p1`` and ``none`` on most
kernels) land in one ``Evaluator.evaluate_structure`` call.  There a point
whose timing another point already ran ``ok`` takes that result; every
other point is simulated in full.  Every result must equal the full
evaluation of its own point, at any pool size.
"""

import dataclasses
import json

import pytest

from repro.dse import ConfigSpace, DesignPoint, Evaluator, Explorer, GridStrategy
from repro.fleet import interned_pipeline
from repro.harness.cli.jobs import _dse_scoring
from repro.harness.report import format_pareto
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy
from repro.vsim.cosim import SMOKE_SETUP_ARGS


def small(name: str):
    return dataclasses.replace(
        KERNELS_BY_NAME[name], setup_args=SMOKE_SETUP_ARGS[name]
    )


class TestShards:
    """A shard whose points end other than ``ok`` is still scored point
    by point as :meth:`Evaluator.evaluate` scores it."""

    @pytest.mark.parametrize("depths", [(0, 4, 16, 2), (4, 0, 16), (4, 16, 0)])
    def test_deadlocking_depth_in_a_shard(self, depths):
        evaluator = Evaluator(small("ks"))
        points = [DesignPoint(n_workers=2, fifo_depth=d) for d in depths]
        results, derived = evaluator.evaluate_structure(points)
        alone = [evaluator.evaluate(p) for p in points]
        assert [r.to_dict() for r in results] == [r.to_dict() for r in alone]
        bad = depths.index(0)
        assert results[bad].status == "deadlock" and results[bad].diagnosis
        assert all(r.ok for i, r in enumerate(results) if i != bad)
        assert derived == 0  # every depth is a timing of its own

    def test_cycle_budget_in_a_shard(self):
        spec = small("ks")
        full = Evaluator(spec).evaluate(DesignPoint(n_workers=2, fifo_depth=16))
        points = [DesignPoint(n_workers=2, fifo_depth=d) for d in (16, 1, 4)]
        tight = Evaluator(spec, max_cycles=full.cycles + 1)
        results, derived = tight.evaluate_structure(points)
        assert [r.to_dict() for r in results] == [
            tight.evaluate(p).to_dict() for p in points]
        assert results[0].ok and results[1].status == "timeout"
        assert derived == 0

    def test_report_bytes_do_not_depend_on_pool_size_or_derivation(self):
        spec = small("bfs")
        space = ConfigSpace(
            policies=["p1", "none"], n_workers=[1, 2], fifo_depths=[2, 16],
            cache_lines=[16, 512], private_caches=[False, True],
        )
        sweeps = {}
        for label, kwargs in {
            "serial": {}, "pool": {"processes": 2},
            "no-derive": {"engine": "event"},
        }.items():
            with Explorer(spec, space, **kwargs) as explorer:
                sweeps[label] = explorer.run(GridStrategy())
        reports = {label: json.dumps(sweep.to_json_dict(), sort_keys=True)
                   for label, sweep in sweeps.items()}
        assert reports["serial"] == reports["pool"] == reports["no-derive"]
        assert [sweeps[label].derived for label in sweeps] == [20, 20, 0]
        evaluator = Evaluator(spec)
        assert [r.to_dict() for r in sweeps["serial"].results] == [
            evaluator.evaluate(p).to_dict() for p in space.grid()]


class TestDesignSharding:
    """Knob settings that compile to the same pipeline share one shard
    and the results of its timings."""

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
        design = {
            p: interned_pipeline(spec, p.replication_policy, p.n_workers).design_key
            for p in points
        }
        # One full run per timing of a design, at most; a cache size
        # whose shadow matched its sibling's run is derived too.
        ran = {(design[p], p.fifo_depth) for p in points}
        timings = {(design[p], p.fifo_depth, p.cache_lines) for p in points}
        full = sweep.cache_misses - sweep.derived
        assert len(ran) <= full <= len(timings)

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
        space = ConfigSpace(policies=["p1", "none"], n_workers=[2],
                            fifo_depths=[4, 16])
        with Explorer(small("ks"), space) as explorer:
            return explorer.run(GridStrategy())

    def test_counts_stay_out_of_the_deterministic_form(self, sweep):
        assert (sweep.cache_misses, sweep.derived) == (4, 2)
        text = json.dumps(sweep.to_json_dict())
        assert "derived" not in text
        rebuilt = type(sweep).from_json_dict(sweep.to_json_dict())
        assert rebuilt.derived == 0

    def test_envelope_extra_and_report_line_carry_them(self, sweep):
        assert _dse_scoring(sweep) == {"derived": 2}
        assert ("result cache: 0/4 hits (0%); 2 simulated in full, "
                "2 derived") in format_pareto(sweep)
