"""One job path: the harness CLI is a client of the service's job contract.

``python -m repro.harness dse|faults|rtl`` builds the same
:class:`JobRequest` a service client would, runs the executor the service
runs, and stores the artifact under ``request.key`` in ``--store`` — so a
CLI run, a direct :func:`execute` and a service job agree byte for byte,
and a store filled by one answers the other.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.faults.sweep import resilience_sweep
from repro.harness.__main__ import main
from repro.kernels import KERNELS_BY_NAME
from repro.obs.emit import run_key
from repro.obs.query import load_envelopes
from repro.service import ArtifactStore, JobRequest
from repro.service import jobs
from repro.service.queue import JobQueue

#: Scaled-down ks: the whole compile+simulate+cost path in ~50 ms.
SMALL_KS = dataclasses.replace(KERNELS_BY_NAME["ks"], setup_args=[10, 10])

#: kind -> (CLI flags, the same options as a service client spells them).
CASES = {
    "dse": (
        ["--policies", "p1", "--workers-list", "1,2", "--fifo-depths", "4"],
        {"policies": ["p1"], "n_workers": [1, 2], "fifo_depths": [4]},
    ),
    "faults": (["--plans", "1", "--seed", "3"], {"plans": 1, "seed": 3}),
    "rtl": (["--workers", "1"], {"n_workers": 1}),
}


@pytest.fixture(autouse=True)
def small_ks(monkeypatch):
    monkeypatch.setitem(KERNELS_BY_NAME, "ks", SMALL_KS)


def stored_bytes(root, key: str) -> bytes:
    return ArtifactStore(root).path(key).read_bytes()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_cli_run_execute_and_store_agree_and_the_service_answers_cached(
    kind, tmp_path
):
    flags, options = CASES[kind]
    root = tmp_path / "store"
    assert main([kind, "ks", *flags, "--store", str(root)]) == 0
    request = JobRequest.make(kind, "ks", options)

    store = ArtifactStore(root)
    direct = jobs.execute(request)
    assert store.get(request.key) == direct
    assert stored_bytes(root, request.key) == json.dumps(
        direct, sort_keys=True
    ).encode()
    # The run's typed envelope carries the same artifact, keyed alike.
    (envelope,) = [
        env for env in load_envelopes(root)
        if env.config_hash == request.key
    ]
    assert envelope.payload == direct

    async def submit():
        queue = JobQueue(store, workers=1)
        await queue.start()
        try:
            record = queue.submit(request)
            assert record.status == "done" and record.cached
            assert queue.result(record) == direct
            assert queue.stats.executed == 0 and queue.stats.cached == 1
        finally:
            await queue.close()

    asyncio.run(submit())


def test_dse_pool_size_does_not_change_the_stored_bytes(tmp_path):
    flags, options = CASES["dse"]
    key = JobRequest.make("dse", "ks", options).key
    for processes in ("1", "2"):
        assert main(["dse", "ks", *flags, "--processes", processes,
                     "--store", str(tmp_path / processes)]) == 0
    assert stored_bytes(tmp_path / "1", key) == stored_bytes(tmp_path / "2", key)


def test_cli_sweep_and_service_simulate_share_the_point_cache(
    tmp_path, monkeypatch
):
    flags, _ = CASES["dse"]
    assert main(["dse", "ks", *flags, "--store", str(tmp_path)]) == 0

    class NoEvaluator:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the sweep already evaluated this point")

    monkeypatch.setattr(jobs, "Evaluator", NoEvaluator)
    store = ArtifactStore(tmp_path)
    artifact = jobs.execute(
        JobRequest.make("simulate", "ks", {"n_workers": 2, "fifo_depth": 4}),
        store=store,
    )
    assert artifact["status"] == "ok"
    assert store.stats.hits == 1 and store.stats.misses == 0
    # ... and --no-cache keeps per-point results out of the store.
    other = tmp_path / "no-cache"
    assert main(["dse", "ks", *flags, "--no-cache", "--store", str(other)]) == 0
    assert ArtifactStore(other).get(artifact["eval_key"]) is None


def test_contract_errors_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dse", "ks", "--cache-lines", "48"])
    assert info.value.code == 2
    assert "cache_lines=[48] invalid" in capsys.readouterr().err


def test_dse_resume_journals_a_fleet_resume_event(tmp_path, capsys):
    flags, _ = CASES["dse"]
    argv = ["dse", "ks", *flags, "--store", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert "resumed:" not in first.err
    assert main([*argv, "--resume"]) == 0
    resumed = capsys.readouterr()
    assert "resumed: replayed 2 point(s) from cache, computed 0" in resumed.err
    # stdout differs only in the cache line and the wall-clock line.
    assert resumed.out.count("Pareto frontier") == 1
    (event,) = [
        env for env in load_envelopes(tmp_path).filter(kind="fleet")
        if env.status == "resume"
    ]
    assert event.extra == {"subsystem": "dse", "kernel": "ks"}
    assert "replayed 2 point(s)" in event.payload["event"]["detail"]


@pytest.mark.parametrize("change", [
    {"check_function": "other_check"},
    {"setup_args": [12, 12]},
    {"accel_function": "other_kernel"},
])
def test_every_run_key_covers_the_entry_point_contract(change):
    other = dataclasses.replace(SMALL_KS, **change)
    knobs = dict(engine="event", n_workers=2, fifo_depth=4, max_cycles=None)
    for kind in ("trace", "sim", "faults-plan"):
        assert run_key(kind, SMALL_KS, **knobs) != run_key(kind, other, **knobs)


def test_fault_checkpoints_are_addressed_by_run_key(tmp_path):
    # ... so two specs that share a name and source but not their entry
    # points cannot replay each other's plan records under --resume.
    store = ArtifactStore(tmp_path)
    knobs = dict(n_plans=1, seed=0, engine="event", n_workers=2,
                 fifo_depth=4, max_cycles=None)
    report = resilience_sweep(SMALL_KS, store=store, **knobs)
    for record in report.records:
        key = run_key("faults-plan", SMALL_KS, index=record.index, **knobs)
        assert store.get(key) == record.to_dict()
