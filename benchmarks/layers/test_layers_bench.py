"""Smoke tests of the layers benchmark (not in tier 1; run by path):

    PYTHONPATH=src python -m pytest benchmarks/layers/test_layers_bench.py -q

One ``--quick --trace`` run of all four workloads (~45 s) feeds most of
the checks: result schema, names against BENCHMARK.json, span nesting,
the contract's one-line form, seeds, and ``compare``.
"""

import copy
import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import core  # noqa: E402
import run as layers_run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args, check=True):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if check:
        assert proc.returncode == 0, proc.stdout[-3000:]
    return proc


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """Every workload, untraced and traced, at smoke scale."""
    out = tmp_path_factory.mktemp("layers") / "quick.json"
    _run("--quick", "--trace", "--out", str(out))
    return out, json.loads(out.read_text())


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCH["paths"] == ["benchmarks/layers"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    names = []
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    # The time cap: 4 + 22 x workloads runs inside 3420 s.
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 10) <= 3420


# -- the quick run -----------------------------------------------------------


def test_result_file_records_what_makes_runs_comparable(quick):
    _, document = quick
    assert {
        "commit", "python", "nproc", "seed", "quick", "seconds", "repeat",
        "calib_nominal_s", "calib_iters", "calibration_median_s",
        "calibration_spread",
    } <= set(document["meta"])
    assert document["meta"]["quick"] is True
    assert [(r["workload"], r["trace"]) for r in document["runs"]] == [
        (w, t) for w in WORKLOADS for t in (0, 1)
    ]


def test_every_run_is_correct_and_names_match_benchmark_json(quick):
    _, document = quick
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    for run in document["runs"]:
        assert run["correct"] and run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1
        assert all(NAME.match(name) for name in run["metrics"])
        if run["trace"]:
            assert set(run["metrics"]) <= per_layer
            assert run["metrics"]["bench.trace_overhead_ratio"] > 1
        else:
            assert set(run["metrics"]) == end_to_end == set(run["raw"])
            assert all(v > 0 for v in run["metrics"].values())
    traced = set().union(
        *(r["metrics"] for r in document["runs"] if r["trace"])
    )
    assert traced == per_layer, "a declared layer metric is never measured"


def test_spans_nest_and_self_times_fit_in_the_wall(quick):
    _, document = quick
    for run in document["runs"]:
        if not run["trace"]:
            continue
        spans = run["spans"]
        assert spans["count"] > 10 and spans["nested"]
        assert spans["min_self_s"] >= -1e-6
        assert spans["self_s"] <= spans["roots_s"] * (1 + 1e-9) + 1e-6
        events = json.loads((ROOT / run["trace_file"]).read_text())["traceEvents"]
        assert len(events) == spans["count"]
        by_id = {e["args"]["id"]: e for e in events}
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0
            parent = event["args"]["parent"]
            if parent is not None:
                assert by_id[parent]["args"]["op"] == event["args"]["op"]


def test_compare_is_clean_on_itself_and_catches_a_regression(quick, tmp_path):
    out, document = quick
    same = _run("compare", str(out), str(out))
    assert "0 worse" in same.stdout
    slower = copy.deepcopy(document)
    for run in slower["runs"]:
        if run["workload"] == "oneshot" and not run["trace"]:
            run["metrics"]["cold_geomean_ms"] *= 1.5
    worse = tmp_path / "slower.json"
    worse.write_text(json.dumps(slower))
    proc = _run("compare", str(out), str(worse), check=False)
    assert proc.returncode == 1
    assert re.search(r"oneshot\s+cold_geomean_ms .* worse", proc.stdout)
    other_seed = copy.deepcopy(document)
    other_seed["meta"]["seed"] = 9
    other = tmp_path / "other.json"
    other.write_text(json.dumps(other_seed))
    assert _run("compare", str(out), str(other), check=False).returncode == 2


# -- the contract's command line ----------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(trace, tmp_path):
    proc = _run(
        "--workload", "compile-emit", "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--quick", "--out", str(tmp_path / "r.json"),
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = line["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_without_the_program_there_is_no_result(tmp_path):
    """A directory with only BENCHMARK.json and this package must fail."""
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    target = bare / "benchmarks" / "layers"
    target.mkdir()
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", "--workload", "oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")


# -- inputs and statistics -----------------------------------------------------


def test_seed_changes_inputs_not_names():
    from repro.kernels import ALL_KERNELS

    zero = core.select_kernels(0, quick=False)
    one = core.select_kernels(1, quick=False)
    assert zero == list(ALL_KERNELS)
    assert [s.name for s in one] == [s.name for s in zero]
    assert [s.setup_args for s in one] == [s.setup_args for s in zero]
    changed = [a.name for a, b in zip(zero, one) if a.source != b.source]
    assert len(changed) >= 5
    assert core.select_kernels(1, quick=False) == one
    assert core.variant(one[0], 3).source != core.variant(one[0], 4).source


def test_seeded_quick_run_keeps_names_and_passes(quick, tmp_path):
    _, document = quick
    out = tmp_path / "seed1.json"
    _run("--quick", "--workload", "oneshot", "--seed", "1", "--out", str(out))
    seeded = json.loads(out.read_text())["runs"][0]
    base = next(r for r in document["runs"]
                if r["workload"] == "oneshot" and not r["trace"])
    assert seeded["correct"] and set(seeded["metrics"]) == set(base["metrics"])
    assert seeded["quality"] != base["quality"], "seed 1 ran seed 0's inputs"


def test_percentile_geomean_and_verdicts():
    assert core.percentile([3, 1, 2], 0.5) == 2
    assert core.percentile(list(range(1, 11)), 0.9) == 9
    assert core.geomean([2, 8]) == pytest.approx(4)
    assert layers_run.verdict([10.0], [10.5], "lower", 0.1)[0] == "within bound"
    assert layers_run.verdict([10.0], [12.0], "lower", 0.1)[0] == "worse"
    assert layers_run.verdict([10.0], [8.0], "lower", 0.1)[0] == "better"
    assert layers_run.verdict([10.0], [8.0], "higher", 0.1)[0] == "worse"
    noisy_a, noisy_b = [8.0, 10.0, 12.0, 14.0], [9.0, 11.0, 13.0, 15.0]
    assert layers_run.verdict(noisy_a, noisy_b, "lower", 0.1)[0] == "unresolved"


def test_reference_seconds_divide_out_the_machine():
    meter = core.Meter()
    with meter.wave("cold", 0) as wave:
        wave.add("g", "k", raw_s=2.0)
    meter.calib[:] = [0.060, 0.060]  # a machine half as fast as nominal
    meter.waves[0].raw_s = 2.0
    summary = meter.summarize("cold")
    assert summary["raw"]["p50_ms"] == pytest.approx(2000)
    assert summary["ref"]["p50_ms"] == pytest.approx(1000)
    assert summary["ref"]["ops_per_s"] == pytest.approx(1.0)
