"""One run per cache family: shadow tags and the results derived from them.

A :class:`DirectMappedCache` carries shadow tag arrays of other line
counts through its own access stream; ``Evaluator.evaluate_structure``
gives a shared-cache sibling the result of the run whose cache its
shadow matched hit for hit.  Every derived result must equal the full
evaluation of its own point.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dse import ConfigSpace, DesignPoint, Evaluator, Explorer, GridStrategy
from repro.hw import DirectMappedCache
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.vsim.cosim import SMOKE_SETUP_ARGS

#: A family per FIFO depth whose first point (512 lines) times a 16-line
#: sibling exactly at smoke scale and a 1-line sibling not at all.
FAMILIES = dict(policies=["p1"], n_workers=[2], fifo_depths=[4, 16],
                cache_lines=[512, 16, 1])


def small(spec):
    return dataclasses.replace(spec, setup_args=SMOKE_SETUP_ARGS[spec.name])


def outcomes(stream, n_lines):
    """(hit, ready) per access of ``stream`` on a fresh cache."""
    cache = DirectMappedCache(n_lines=n_lines)
    out = []
    for addr, is_write, cycle in stream:
        hits = cache.stats.hits
        ready = cache.access(addr, is_write, cycle)
        out.append((cache.stats.hits > hits, ready))
    return out, cache.stats


accesses = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.booleans(), st.integers(0, 3)),
    max_size=300,
)


class TestShadowTags:
    @settings(max_examples=60, deadline=None)
    @given(accesses, st.sampled_from([1, 4, 16, 64]),
           st.lists(st.sampled_from([1, 2, 8, 32, 128]), max_size=3))
    def test_shadow_matches_iff_a_cache_of_its_size_hits_alike(
        self, steps, n_lines, shadow_lines
    ):
        stream, cycle = [], 0
        for addr, is_write, gap in steps:
            cycle += gap
            stream.append((addr, is_write, cycle))
        alone, alone_stats = outcomes(stream, n_lines)
        cache = DirectMappedCache(n_lines=n_lines)
        shadows = [cache.add_shadow(lines) for lines in shadow_lines]
        shadowed = []
        for addr, is_write, cycle in stream:
            hits = cache.stats.hits
            ready = cache.access(addr, is_write, cycle)
            shadowed.append((cache.stats.hits > hits, ready))
        # Shadows never change the cache they ride on.
        assert shadowed == alone
        assert cache.stats == alone_stats
        for shadow in shadows:
            theirs, stats = outcomes(stream, shadow.n_lines)
            assert shadow.matched == (
                [hit for hit, _ in theirs] == [hit for hit, _ in alone])
            assert (shadow.stats.misses, shadow.stats.writebacks) == (
                stats.misses, stats.writebacks)

    def test_reset_restores_every_shadow(self):
        cache = DirectMappedCache(n_lines=4)
        shadow = cache.add_shadow(1)
        for addr in (0, 128, 0):
            cache.access(addr, True, 0)
        assert not shadow.matched and shadow.stats.misses == 3
        cache.reset()
        assert shadow.matched and shadow.stats.misses == 0
        assert shadow._tags == [None]

    def test_prefetching_cache_refuses_shadows(self):
        with pytest.raises(ValueError, match="prefetch"):
            DirectMappedCache(next_line_prefetch=True).add_shadow(16)

    def test_a_cache_without_shadows_never_follows(self, monkeypatch):
        def follow(*args):
            raise AssertionError("followed with no shadows")

        monkeypatch.setattr(DirectMappedCache, "_follow", follow)
        cache = DirectMappedCache(n_lines=4)
        rng = random.Random(0)
        for cycle in range(200):
            cache.access(rng.randrange(1 << 12), rng.random() < 0.3, cycle)
        assert cache.stats.accesses == 200


class TestDerivedResults:
    @pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
    def test_every_derived_result_is_the_full_evaluation(self, spec):
        evaluator = Evaluator(small(spec))
        points = ConfigSpace(**FAMILIES).grid()
        results, derived = evaluator.evaluate_structure(points)
        assert [r.to_dict() for r in results] == [
            evaluator.evaluate(p).to_dict() for p in points]
        # Both outcomes occur: some sibling derived, some simulated.
        siblings = len(points) - len(FAMILIES["fifo_depths"])
        assert 0 < derived < siblings

    def test_em3d_conflict_misses_at_128_lines_and_derives_nothing(self):
        # Paper scale, one structure of the benchmark grid: the 128-line
        # run misses where 512 lines hit, so every sibling is simulated.
        evaluator = Evaluator(KERNELS_BY_NAME["em3d"])
        points = ConfigSpace(policies=["p1"], n_workers=[2],
                             fifo_depths=[4, 16], cache_lines=[128, 512]).grid()
        results, derived = evaluator.evaluate_structure(points)
        assert derived == 0
        assert [r.to_dict() for r in results] == [
            evaluator.evaluate(p).to_dict() for p in points]

    def test_private_caches_never_derive(self):
        evaluator = Evaluator(small(ALL_KERNELS[0]))
        points = ConfigSpace(**FAMILIES, private_caches=[True]).grid()
        results, derived = evaluator.evaluate_structure(points)
        assert derived == 0
        assert [r.to_dict() for r in results] == [
            evaluator.evaluate(p).to_dict() for p in points]

    @pytest.mark.parametrize("engine", ["lockstep", "event"])
    def test_reference_engines_never_derive(self, engine):
        spec = small(ALL_KERNELS[0])
        space = ConfigSpace(policies=["p1"], n_workers=[2], fifo_depths=[4],
                            cache_lines=[512, 16])
        with Explorer(spec, space, engine=engine) as explorer:
            sweep = explorer.run(GridStrategy())
        assert sweep.derived == 0
        with Explorer(spec, space) as explorer:
            default = explorer.run(GridStrategy())
        assert default.derived == 1
        assert default.to_json_dict() == sweep.to_json_dict()

    def test_a_family_whose_first_point_fails_derives_nothing(self):
        evaluator = Evaluator(small(ALL_KERNELS[0]))
        points = [DesignPoint(n_workers=2, fifo_depth=0, cache_lines=lines)
                  for lines in (512, 16)]
        results, derived = evaluator.evaluate_structure(points)
        assert [r.status for r in results] == ["deadlock", "deadlock"]
        assert derived == 0
        assert [r.to_dict() for r in results] == [
            evaluator.evaluate(p).to_dict() for p in points]
