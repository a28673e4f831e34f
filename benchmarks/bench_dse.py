"""Design-space exploration throughput: pool scaling and cache warmth.

Two quantities matter for sweep ergonomics:

* **pool-size speedup** — the 12-point ks grid fanned over a 4-process
  pool vs. evaluated serially (both cold, no result cache).  Each grid
  point here is its own compile key, so this measures end-to-end
  per-point cost, not just simulation.
* **warm-cache speedup** — the same sweep re-run against a populated
  on-disk cache; every point must hit (zero re-simulation), which is the
  incrementality contract repeated sweeps rely on.

Both paths must produce byte-identical report JSON (the determinism
acceptance bar).  Pass ``--json <path>`` for BENCH_dse.json tracking.
"""

import json
import os
import time

from conftest import emit, emit_json

from repro.dse import ConfigSpace, Explorer, GridStrategy
from repro.kernels import KERNELS_BY_NAME
from repro.service import ArtifactStore

#: 2 policies x 3 worker counts x 2 FIFO depths = 12 points.
SPACE_KWARGS = dict(
    policies=["p1", "none"],
    n_workers=[1, 2, 4],
    fifo_depths=[4, 16],
)


def _sweep(spec, processes, cache=None):
    """One grid sweep; returns (wall seconds, SweepResult)."""
    with Explorer(
        spec, ConfigSpace(**SPACE_KWARGS), cache=cache, processes=processes
    ) as explorer:
        start = time.perf_counter()
        sweep = explorer.run(GridStrategy())
        return time.perf_counter() - start, sweep


def test_dse_speed(benchmark, results_dir, json_path, tmp_path):
    spec = KERNELS_BY_NAME["ks"]
    serial_s, serial = _sweep(spec, processes=1)
    pool_s, pooled = _sweep(spec, processes=4)

    # No warm LRU: the pool's processes share the directory, so disk is
    # the single source of truth (same configuration as `harness dse`).
    cache = ArtifactStore(tmp_path / "dse-cache", lru_entries=0)
    cold_s, cold = _sweep(spec, processes=4, cache=cache)
    warm_s, warm = _sweep(spec, processes=4, cache=cache)

    # Determinism and incrementality contracts before any reporting.
    reports = [
        json.dumps(s.to_json_dict(), sort_keys=True)
        for s in (serial, pooled, cold, warm)
    ]
    assert len(set(reports)) == 1, "sweep reports diverged across modes"
    assert warm.cache_misses == 0, "warm sweep re-simulated points"
    assert warm.hit_rate == 1.0

    # The tracked quantity: one warm (fully cached) sweep.
    benchmark.pedantic(
        lambda: _sweep(spec, processes=4, cache=cache),
        rounds=1, iterations=1,
    )

    pool_speedup = serial_s / pool_s
    warm_speedup = cold_s / warm_s
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    lines = [
        "Design-space sweep throughput (ks, 12-point grid)",
        f"  host cores: {cores} (pool speedup is bounded by this)",
        "",
        f"{'mode':<22s} {'seconds':>8s} {'speedup':>9s}",
        f"{'serial, cold':<22s} {serial_s:>7.2f}s {'1.00x':>9s}",
        f"{'4 processes, cold':<22s} {pool_s:>7.2f}s {pool_speedup:>8.2f}x",
        f"{'4 processes, warm':<22s} {warm_s:>7.2f}s "
        f"{cold_s / warm_s:>8.2f}x (vs cold cached run)",
        "",
        f"cache: {warm.cache_hits}/{len(warm.results)} hits on re-run "
        f"({100 * warm.hit_rate:.0f}%)",
        f"frontier: {len(warm.frontier())} of {len(warm.results)} points",
    ]
    emit(results_dir, "dse_speed", "\n".join(lines))

    emit_json(results_dir, json_path, "dse_speed", {
        "host_cores": cores,
        "n_points": len(serial.results),
        "serial_s": serial_s,
        "pool_s": pool_s,
        "pool_speedup": pool_speedup,
        "cold_cached_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": warm_speedup,
        "warm_hit_rate": warm.hit_rate,
    }, kernel=spec.name)
