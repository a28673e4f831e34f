"""Simulator wall-clock: specialized engine vs the event engine.

The specialized engine renders each function's FSM schedule into one
generated Python generator (registers, FIFOs and the FSM position are
its locals, a tick is one resumption that closes its cycles in the
timing rule's own lines, a run of register-only states runs without a
yield), so the hot path stops walking ``Instruction`` objects.  The contract is
bit-identical ``SimReport``\\ s against the event engine (pinned by
``tests/test_specialized_engine.py``); this benchmark measures what the
specialization buys: simulation-only wall-clock (compilation, workload
setup and code generation excluded) for every kernel under the
paper-default memory system.

Acceptance bar: identical reports everywhere, and >= 2x wall-clock
speedup over the event engine on at least 6 of the 9 kernels (the
second-wave workloads are small, so a couple may hover just under 2x
from fixed per-run overheads).  The payload also carries the geomean
speedup over the nine kernels, which CI gates (one noisy kernel moves it
little).  Pass ``--json <path>`` for BENCH_sim_specialize.json perf
tracking.
"""

import math
import time

from conftest import emit, emit_json

from repro.harness.build import compile_kernel
from repro.harness.runner import setup_workload
from repro.hw import AcceleratorSystem, DirectMappedCache
from repro.kernels import ALL_KERNELS

#: Kernels on which the specialized engine must at least double the
#: event engine's simulation rate.
REQUIRED_2X_KERNELS = 6

#: Timed runs per (kernel, engine); the minimum is reported, so one
#: scheduler hiccup cannot fail the acceptance bar.
ROUNDS = 2


def _timed_run(spec, compiled, engine):
    """Simulate once; returns (sim-only seconds, SimReport)."""
    memory, globals_, args = setup_workload(compiled.module, spec)
    system = AcceleratorSystem(
        compiled.module, memory,
        channels=compiled.result.channels,
        cache=DirectMappedCache(ports=8),
        global_addresses=globals_,
        engine=engine,
    )
    start = time.perf_counter()
    sim = system.run(spec.measure_entry, args)
    return time.perf_counter() - start, sim


def _best_of(spec, compiled, engine):
    """min-of-ROUNDS timing (the first round also renders the generated code)."""
    runs = [_timed_run(spec, compiled, engine) for _ in range(ROUNDS)]
    return min(seconds for seconds, _ in runs), runs[0][1]


def test_sim_specialize(benchmark, results_dir, json_path):
    compiled = {spec.name: compile_kernel(spec) for spec in ALL_KERNELS}
    rows = []
    for spec in ALL_KERNELS:
        event_s, event = _best_of(spec, compiled[spec.name], "event")
        special_s, special = _best_of(
            spec, compiled[spec.name], "specialized"
        )
        # Bit-identity first: a fast engine that drifts is worthless.
        assert special.cycles == event.cycles, spec.name
        assert special.return_value == event.return_value, spec.name
        assert special.worker_stats == event.worker_stats, spec.name
        assert special.stall_breakdown == event.stall_breakdown, spec.name
        rows.append({
            "kernel": spec.name,
            "cycles": event.cycles,
            "event_s": event_s,
            "specialized_s": special_s,
            "speedup": event_s / special_s,
        })

    # The tracked quantity: one specialized ks simulation.
    ks = next(s for s in ALL_KERNELS if s.name == "ks")
    benchmark.pedantic(
        lambda: _timed_run(ks, compiled["ks"], "specialized"),
        rounds=1, iterations=1,
    )

    lines = [
        "Simulator wall-clock: specialized vs event engine (sim only)",
        "",
        f"{'kernel':<14s} {'cycles':>10s} {'event':>9s} "
        f"{'specialized':>12s} {'speedup':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row['kernel']:<14s} {row['cycles']:>10d} "
            f"{row['event_s']:>8.3f}s {row['specialized_s']:>11.3f}s "
            f"{row['speedup']:>7.2f}x"
        )
    at_2x = [r for r in rows if r["speedup"] >= 2.0]
    geomean = math.exp(sum(math.log(r["speedup"]) for r in rows) / len(rows))
    lines.append("")
    lines.append(
        f">=2x on {len(at_2x)}/{len(rows)} kernels "
        f"(acceptance: {REQUIRED_2X_KERNELS}); geomean {geomean:.2f}x"
    )
    emit(results_dir, "sim_specialize", "\n".join(lines))

    emit_json(results_dir, json_path, "sim_specialize", {
        "rows": rows,
        "kernels_at_2x": len(at_2x),
        "required_at_2x": REQUIRED_2X_KERNELS,
        "geomean_speedup": geomean,
    })

    # Acceptance bar: the generated code pays for itself broadly,
    # not on one cherry-picked workload.
    assert len(at_2x) >= REQUIRED_2X_KERNELS, rows
