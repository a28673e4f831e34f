"""One workload, in a process of its own.

``run.py`` starts this file with ``PYTHONHASHSEED=0`` and the repo's
``src`` on ``PYTHONPATH``; it prints exactly one JSON line on stdout.
Set-up time runs from the launcher's ``LAYERS_BENCH_T0`` stamp (taken
just before the spawn, same monotonic clock) to the end of the workload's
``setup`` — interpreter start, imports, oracle references, service boot.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import core  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_CALIB_SAMPLES = 3

WORKLOADS = {
    "oneshot": "wl_oneshot",
    "compile-emit": "wl_compile_emit",
    "dse-sweep": "wl_dse_sweep",
    "service-mix": "wl_service_mix",
}


class Context:
    """What a workload is given: its inputs' seed, its budget, and the
    meter, checker and tracer it reports through."""

    def __init__(self, args, layer_names: set[str], tmp: pathlib.Path) -> None:
        self.seed: int = args.seed
        self.quick: bool = args.quick
        self.seconds: float = args.seconds
        self.layer_names = layer_names
        self.tmp = tmp
        self.meter = core.Meter()
        self.check = core.Checker()
        self.tracer_on = bool(args.trace)
        self.tracer = core.Tracer(self.meter) if args.trace else core.NullTracer()

    def rounds(self, one_round, nominal_round_s: float) -> int:
        """Run ``one_round(0)``, ``one_round(1)``, ... — as many rounds as
        ``seconds`` holds at the workload's nominal cost of a round.

        The count is planned from the frozen nominal cost, not from the
        clock: with rounds of 4-15 s a clock-based stop sits on an edge
        for some workload at any ``seconds``, and the count — and with it
        peak memory and the run's length — flips between runs.  The clock
        only cuts a run short on a machine far slower than nominal.
        ``--quick`` is one round."""
        planned = 1 if self.quick else max(1, round(self.seconds / nominal_round_s))
        give_up = time.perf_counter() + 1.4 * self.seconds
        done = 0
        while done < planned:
            start = time.perf_counter()
            one_round(done)
            done += 1
            if time.perf_counter() + (time.perf_counter() - start) > give_up:
                break
        return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    t0 = float(os.environ.get("LAYERS_BENCH_T0") or _STARTED)
    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in bench["per_layer"]}
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = Context(args, layer_names, tmp)
    workload = importlib.import_module(WORKLOADS[args.workload])

    state: dict = {}
    try:
        # Set-up is one long region: three samples on each side of it.
        before = ctx.meter.sample_now(SETUP_CALIB_SAMPLES)
        state = workload.setup(ctx)
        setup_raw_s = time.monotonic() - t0
        after = ctx.meter.sample_now(SETUP_CALIB_SAMPLES)
        setup_s = setup_raw_s * core.CALIB_NOMINAL_S / ((before + after) / 2)
        if args.trace:
            metrics, raw, phases = workload.trace(ctx, state), {}, {}
        else:
            workload.measure(ctx, state)
            metrics, raw, phases = _end_to_end(ctx, setup_s, setup_raw_s)
    finally:
        if hasattr(workload, "teardown"):
            workload.teardown(state)
        shutil.rmtree(tmp, ignore_errors=True)

    calib = ctx.meter.calib_summary()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "correct": ctx.check.failed == 0,
        "attempted": ctx.check.attempted,
        "failed": ctx.check.failed,
        "failures": ctx.check.failures,
        "metrics": metrics,
        "raw": raw,
        "phases": phases,
        "quality": workload.quality(state),
        "calibration": calib,
    }
    if args.trace:
        metrics["bench.calib_s_median"] = calib["median_s"]
        metrics["bench.calib_spread"] = calib["spread"]
        unknown = sorted(set(metrics) - layer_names)
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        ctx.tracer.write_chrome_trace(trace_file)
        result["trace_file"] = str(trace_file.relative_to(HERE.parent.parent))
        result["spans"] = _span_check(ctx.tracer)
    print(json.dumps(result))
    return 0


def _end_to_end(ctx, setup_s: float, setup_raw_s: float):
    cold, warm = ctx.meter.summarize("cold"), ctx.meter.summarize("warm")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def table(unit: str, setup: float) -> dict:
        return {
            "setup_s": setup,
            "cold_ops_per_s": cold[unit]["ops_per_s"],
            "cold_geomean_ms": cold[unit]["geomean_ms"],
            "warm_ops_per_s": warm[unit]["ops_per_s"],
            "peak_rss_mib": peak_rss_mib,
        }

    # Printed and stored, not gated: on this box their spread over ten
    # seeded runs (9-17 %) is wider than a bound could usefully be.
    phases = {
        name: {
            "samples": phase["samples"],
            "rounds": phase["rounds"],
            "distinct_ops": phase["distinct_ops"],
            "p50_ms": phase["ref"]["p50_ms"],
            "p90_ms": phase["ref"]["p90_ms"],
            "group_ms": phase["ref"]["group_ms"],
        }
        for name, phase in (("cold", cold), ("warm", warm))
    }
    return table("ref", setup_s), table("raw", setup_raw_s), phases


def _span_check(tracer) -> dict:
    """What the test suite asserts about the trace: spans nest inside
    their parents and self times add up to no more than the roots."""
    by_id = {s.id: s for s in tracer.spans}
    nested = all(
        by_id[s.parent].start <= s.start and s.end <= by_id[s.parent].end
        for s in tracer.spans if s.parent is not None
    )
    own = tracer.self_times()
    return {
        "count": len(tracer.spans),
        "nested": nested,
        "self_s": sum(own.values()),
        "roots_s": sum(s.duration for s in tracer.spans if s.parent is None),
        "min_self_s": min(own.values(), default=0.0),
    }


if __name__ == "__main__":
    sys.exit(main())
