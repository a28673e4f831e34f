"""The repo's benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/layers/run.py                      # every workload
    python3 benchmarks/layers/run.py --workload oneshot --seed 3
    python3 benchmarks/layers/run.py --trace              # + per-layer table
    python3 benchmarks/layers/run.py --quick              # smoke, < 30 s
    python3 benchmarks/layers/run.py compare A.json B.json

Each workload runs in a child process of its own, one after the other
(``PYTHONHASHSEED=0``; the box has two cores, the service workload uses
both).  Every metric is printed by name with its unit, every output is
checked against an oracle, and the runs are written to a result file
under ``benchmarks/layers/out/``.  Names, units, directions and bounds
come from ``BENCHMARK.json`` at the root of the repo.  With
``--workload`` the last line of output is the one-line JSON result the
benchmark contract asks for.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import core  # noqa: E402

QUICK_SECONDS = 1.0
CHILD_TIMEOUT_S = 170


def load_bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One workload in a fresh interpreter; returns its JSON result."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT / 'src' / 'repro'} is missing: nothing to measure")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["LAYERS_BENCH_T0"] = repr(time.monotonic())
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    proc = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def contract_result(bench: dict, result: dict) -> dict:
    """The one-line form: every declared metric of the run's kind, with
    its unit; a layer that did not run in this workload reads 0."""
    declared = bench["per_layer"] if result["trace"] else bench["end_to_end"]
    metrics = {}
    for metric in declared:
        if metric["name"] in result["metrics"]:
            value = result["metrics"][metric["name"]]
        elif result["trace"]:
            value = 0
        else:
            raise SystemExit(f"{result['workload']}: no value for {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_result(bench: dict, result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"\n== {result['workload']} · seed {result['seed']} · {kind} ==")
    if result["trace"]:
        print(f"{'metric':<40s} {'value':>16s}  unit")
        for metric in bench["per_layer"]:
            value = result["metrics"].get(metric["name"])
            if value is not None:
                print(f"{metric['name']:<40s} {value:>16.6g}  {metric['unit']}")
        print(f"trace: {result['trace_file']} "
              f"({result['spans']['count']} spans)")
    else:
        print(f"{'metric':<18s} {'reference':>14s} {'raw':>14s}  "
              f"{'unit':<6s} {'better':<7s} bound")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            print(
                f"{name:<18s} {result['metrics'][name]:>14.6g} "
                f"{result['raw'][name]:>14.6g}  {metric['unit']:<6s} "
                f"{metric['better']:<7s} {metric['bound']:.0%}"
            )
        for phase, info in result["phases"].items():
            print(f"{phase}: {info['samples']} samples of {info['distinct_ops']} "
                  f"operations over {info['rounds']} round(s); not gated: "
                  f"p50 {info['p50_ms']:.5g} ms, p90 {info['p90_ms']:.5g} ms")
        for name, value in result["quality"].items():
            print(f"{name:<40s} {value:>16.6g}  (exact)")
    rate = result["failed"] / max(result["attempted"], 1)
    print(f"checked: {result['attempted']} operations, {result['failed']} failed "
          f"(error rate {rate:.4f}); calibration median "
          f"{result['calibration']['median_s'] * 1e3:.2f} ms, "
          f"spread {result['calibration']['spread']:.1%}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def cmd_run(args) -> int:
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; have {names}")
    workloads = [args.workload] if args.workload else names
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else bench["run_seconds"]
    modes = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]

    runs = []
    for _ in range(args.repeat):
        for workload in workloads:
            for trace in modes:
                result = run_child(workload, args.seed, seconds, trace, args.quick)
                print_result(bench, result)
                runs.append(result)

    calib = [r["calibration"]["median_s"] for r in runs]
    document = {
        "meta": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "quick": args.quick,
            "seconds": seconds,
            "repeat": args.repeat,
            "calib_nominal_s": core.CALIB_NOMINAL_S,
            "calib_iters": core.CALIB_ITERS * core.CALIB_PARTS,
            "calibration_median_s": statistics.median(calib),
            "calibration_spread": max(r["calibration"]["spread"] for r in runs),
        },
        "runs": runs,
    }
    out = pathlib.Path(args.out) if args.out else (
        OUT / f"result-{time.strftime('%Y%m%d-%H%M%S')}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nresult file: {out}")

    if args.workload is not None:
        # The contract's line for the run asked for (the last one made);
        # it carries correctness itself, so the exit code stays 0.
        print(json.dumps(contract_result(bench, runs[-1])))
        return 0
    return 0 if all(r["correct"] for r in runs) else 1


# --------------------------------------------------------------------------
# Comparing
# --------------------------------------------------------------------------


def _values(document: dict, workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]
        for run in document["runs"]
        if run["workload"] == workload and not run["trace"]
    ]


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(verdict, worsening) of B against A for one (workload, metric).

    ``worsening`` is the change of the median as a share of A's, signed
    so that positive is worse.  With repeats, a spread (quartile distance
    over median, either side) wider than the bound makes the pair
    unresolved — unless every B run sits on one side of every A run.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1 if better == "lower" else -1
    worsening = sign * (med_b - med_a) / med_a
    spread = max(core.iqr_share(a), core.iqr_share(b))
    if spread > bound:
        if sign * (min(b) - max(a)) > 0 and worsening > bound:
            return "worse", worsening, spread
        if sign * (max(b) - min(a)) < 0:
            return "better", worsening, spread
        return "unresolved", worsening, spread
    if worsening > bound:
        return "worse", worsening, spread
    if worsening < -bound:
        return "better", worsening, spread
    return "within bound", worsening, spread


def cmd_compare(args) -> int:
    bench = load_bench()
    a = json.loads(pathlib.Path(args.a).read_text())
    b = json.loads(pathlib.Path(args.b).read_text())
    print(f"{'':<12s} {'A':<44s} B")
    for key in ("commit", "python", "nproc", "seed", "quick", "seconds", "repeat",
                "calibration_median_s", "calibration_spread"):
        print(f"{key:<12.12s} {str(a['meta'][key]):<44s} {b['meta'][key]}")
    for key in ("seed", "quick", "seconds", "calib_nominal_s", "calib_iters"):
        if a["meta"][key] != b["meta"][key]:
            print(f"not comparable: {key} differs")
            return 2

    worse = 0
    print(f"\n{'workload':<13s} {'metric':<18s} {'A median':>12s} {'B median':>12s} "
          f"{'worsening':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            what, worsening, spread = verdict(
                va, vb, metric["better"], metric["bound"]
            )
            worse += what == "worse"
            print(
                f"{workload:<13s} {metric['name']:<18s} "
                f"{statistics.median(va):>12.5g} {statistics.median(vb):>12.5g} "
                f"{worsening:>+10.1%} {spread:>7.1%} {metric['bound']:>6.0%}  {what}"
            )
        # Exact rows: failures, and design quality at the same seed.
        for side, document in (("A", a), ("B", b)):
            failed = sum(
                r["failed"] for r in document["runs"] if r["workload"] == workload
            )
            if failed:
                print(f"{workload:<13s} {side}: {failed} failed operations  worse")
                worse += 1
        qa = _quality(a, workload)
        for name, value in _quality(b, workload).items():
            if name in qa:
                what = ("identical" if value == qa[name]
                        else "better" if value < qa[name] else "worse")
                worse += what == "worse"
                print(f"{workload:<13s} {name:<31s} {qa[name]:>12.6g} "
                      f"{value:>12.6g}  (exact)  {what}")
    print(f"\n{worse} worse")
    return 1 if worse else 0


def _quality(document: dict, workload: str) -> dict:
    for run in document["runs"]:
        if run["workload"] == workload:
            return run["quality"]
    return {}


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return cmd_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = registered paper-scale inputs")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="1 = traced run only; bare --trace = both")
    parser.add_argument("--quick", action="store_true",
                        help="3 kernels, one round")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (compare reads their spread)")
    parser.add_argument("--out", help="result file (default: out/result-*.json)")
    return cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
