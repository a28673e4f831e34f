"""Simulator wall-clock: event-driven skip-ahead vs lockstep oracle.

The event-driven engine (``engine="event"``; the default engine runs
under the same clock) jumps from wake event to wake event instead of
ticking every worker every cycle; both engines are required to produce
bit-identical ``SimReport``\\ s (pinned down by
``tests/test_engine_equivalence.py``).  This benchmark measures what the
skip-ahead actually buys: simulation-only wall-clock (compilation and
workload setup excluded) for every kernel under

* the paper-default cache (few stalls, modest skips), and
* a stall-heavy memory system (``miss_penalty=200``, 16 cache lines),
  where blocked workers dominate and the event engine shines.

Acceptance bar: identical cycle counts everywhere, and >= 3x wall-clock
speedup on at least one stall-dominated kernel.  Pass ``--json <path>``
to also write the timings as JSON (BENCH_sim_speed.json perf tracking).
"""

import time

from conftest import emit, emit_json

from repro.harness.build import compile_kernel
from repro.harness.runner import setup_workload
from repro.hw import AcceleratorSystem, DirectMappedCache
from repro.kernels import ALL_KERNELS

CONFIGS = [
    ("default", {}),
    ("stall_heavy", {"miss_penalty": 200, "n_lines": 16}),
]


def _timed_run(spec, compiled, engine, cache_kwargs):
    """Simulate once; returns (sim-only seconds, SimReport)."""
    kwargs = dict(cache_kwargs)
    kwargs.setdefault("ports", 8)
    memory, globals_, args = setup_workload(compiled.module, spec)
    system = AcceleratorSystem(
        compiled.module, memory,
        channels=compiled.result.channels,
        cache=DirectMappedCache(**kwargs),
        global_addresses=globals_,
        engine=engine,
    )
    start = time.perf_counter()
    sim = system.run(spec.measure_entry, args)
    return time.perf_counter() - start, sim


def test_sim_speed(benchmark, results_dir, json_path):
    compiled = {spec.name: compile_kernel(spec) for spec in ALL_KERNELS}
    rows = []
    for config_name, cache_kwargs in CONFIGS:
        for spec in ALL_KERNELS:
            event_s, event = _timed_run(
                spec, compiled[spec.name], "event", cache_kwargs
            )
            lockstep_s, lockstep = _timed_run(
                spec, compiled[spec.name], "lockstep", cache_kwargs
            )
            # The whole point of the differential contract: skipping the
            # clock forward must not change a single reported number.
            assert event.cycles == lockstep.cycles, (config_name, spec.name)
            assert event.return_value == lockstep.return_value
            assert event.worker_stats == lockstep.worker_stats
            rows.append({
                "config": config_name,
                "kernel": spec.name,
                "cycles": event.cycles,
                "event_s": event_s,
                "lockstep_s": lockstep_s,
                "speedup": lockstep_s / event_s,
            })

    # The tracked quantity: one stall-heavy event-engine simulation.
    em3d = next(s for s in ALL_KERNELS if s.name == "em3d")
    benchmark.pedantic(
        lambda: _timed_run(em3d, compiled["em3d"], "event", CONFIGS[1][1]),
        rounds=1, iterations=1,
    )

    lines = [
        "Simulator wall-clock: event-driven vs lockstep (sim only)",
        "",
        f"{'config':<12s} {'kernel':<14s} {'cycles':>10s} "
        f"{'lockstep':>9s} {'event':>9s} {'speedup':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row['config']:<12s} {row['kernel']:<14s} {row['cycles']:>10d} "
            f"{row['lockstep_s']:>8.3f}s {row['event_s']:>8.3f}s "
            f"{row['speedup']:>7.2f}x"
        )
    stall_heavy = [r for r in rows if r["config"] == "stall_heavy"]
    best = max(stall_heavy, key=lambda r: r["speedup"])
    lines.append("")
    lines.append(
        f"best stall-heavy speedup: {best['speedup']:.2f}x ({best['kernel']})"
    )
    emit(results_dir, "sim_speed", "\n".join(lines))

    emit_json(results_dir, json_path, "sim_speed", {
        "rows": rows,
        "best_stall_heavy_speedup": best["speedup"],
        "best_stall_heavy_kernel": best["kernel"],
    })

    # Acceptance bar: the skip-ahead pays for itself where stalls dominate.
    assert best["speedup"] >= 3.0, best
