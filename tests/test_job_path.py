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
import threading
import time

import pytest

from repro.dse.explore import SweepResult
from repro.errors import CgpaError, ParseError
from repro.faults.sweep import ResilienceReport, resilience_sweep
from repro.harness.__main__ import main
from repro.harness.report import format_pareto
from repro.interp.interpreter import MAX_CALL_DEPTH
from repro.kernels import KERNELS_BY_NAME
from repro.obs.dashboard import render_dashboard
from repro.obs.emit import EnvelopeWriter, run_key
from repro.obs.query import load_envelopes, render_legacy_report
from repro.service import ArtifactStore, ContractError, JobRequest, ServiceClient
from repro.service import jobs
from repro.service.app import ServiceConfig, start_service
from repro.service.queue import JobQueue
from tests.test_frontend_corners import OVERLONG_LITERAL, TOO_DEEP

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


@pytest.mark.parametrize("kind, option", [
    ("simulate", "engine"), ("dse", "engine"), ("faults", "engine"),
    ("dse", "resume"), ("faults", "resume"),
])
def test_the_contract_names_no_engine_and_no_resume(kind, option):
    with pytest.raises(ContractError) as info:
        JobRequest.make(kind, "ks", {option: True})
    assert f"unknown option(s) ['{option}']" in str(info.value)
    assert "valid options: [" in str(info.value)


@pytest.mark.parametrize("argv", [
    ["--kernel", "ks", "--engine", "lockstep"],
    ["trace", "ks", "--engine", "lockstep"],
    ["dse", "ks", "--engine", "lockstep"],
    ["faults", "ks", "--engine", "lockstep"],
    ["dse", "ks", "--resume"],
    ["faults", "ks", "--resume"],
])
def test_engine_and_resume_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


def test_a_dse_rerun_is_answered_from_the_store(tmp_path, capsys):
    flags, _ = CASES["dse"]
    argv = ["dse", "ks", *flags, "--store", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    again = capsys.readouterr()
    assert "result cache: 0/2 hits" in first.out
    assert "result cache: 2/2 hits" in again.out
    assert "resumed:" not in first.err + again.err


def test_a_faults_rerun_replays_its_checkpoints(tmp_path, capsys):
    flags, _ = CASES["faults"]
    argv = ["faults", "ks", *flags, "--store", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    again = capsys.readouterr()
    assert "resumed:" not in first.err
    assert "resumed: 3/3 plan(s) replayed from checkpoints" in again.err
    assert again.out == first.out
    (event,) = [
        env for env in load_envelopes(tmp_path).filter(kind="fleet")
        if env.status == "resume"
    ]
    assert event.extra == {"subsystem": "faults", "kernel": "ks"}
    assert "replayed 3/3 plan checkpoint(s)" in event.payload["event"]["detail"]


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
    # points cannot replay each other's plan records from one store.
    store = ArtifactStore(tmp_path)
    knobs = dict(n_plans=1, seed=0, engine="event", n_workers=2,
                 fifo_depth=4, max_cycles=None)
    report = resilience_sweep(SMALL_KS, store=store, **knobs)
    for record in report.records:
        key = run_key("faults-plan", SMALL_KS, index=record.index, **knobs)
        assert store.get(key) == record.to_dict()


# --------------------------------------------------------------------------
# One run record: the same envelope from the CLI and from the service, once
# --------------------------------------------------------------------------


def service_envelopes(root, requests):
    """Run ``requests`` (each twice) through a real service on a fresh
    store at ``root``; returns the journal it left, the store's entry
    count and its warm keys."""
    config = ServiceConfig(port=0, workers=1, store_root=str(root))
    with start_service(config) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            for request in requests:
                client.run(request, timeout=120)
                client.run(request, timeout=120)  # store hit: no new line
        entries = len(handle.service.store)
        warm = handle.service.store.lru_keys()
    return load_envelopes(root, strict=True), entries, warm


@pytest.mark.parametrize("kind", sorted(CASES))
def test_cli_and_service_journal_the_same_record(kind, tmp_path, capsys):
    flags, options = CASES[kind]
    request = JobRequest.make(kind, "ks", options)
    assert main([kind, "ks", *flags, "--store", str(tmp_path / "cli")]) == 0
    cli_stdout = capsys.readouterr().out
    (from_cli,) = [env for env in load_envelopes(tmp_path / "cli", strict=True)
                   if env.config_hash == request.key]
    journal, _, _ = service_envelopes(tmp_path / "svc", [request])
    (from_service,) = [env for env in journal
                       if env.config_hash == request.key]

    # Who ran it shows only in the run's identity and its `extra`.
    ours = {"run_id", "timestamp", "extra"}
    assert {k: v for k, v in from_cli.to_dict().items() if k not in ours} == {
        k: v for k, v in from_service.to_dict().items() if k not in ours}
    scoring = {"derived"}  # the dse CLI's
    assert (scoring <= set(from_cli.extra)) == (kind == "dse")
    assert from_service.extra == {
        **{k: v for k, v in from_cli.extra.items() if k not in scoring},
        "job_id": "job-00000001", "attempts": 1, "submissions": 1,
    }
    # ... so the text report comes back out of a service's journal too.
    report = render_legacy_report(from_service)
    if kind == "dse":
        assert report == format_pareto(
            SweepResult.from_json_dict(jobs.execute(request)))
        assert "Pareto frontier" in report
    elif kind == "faults":
        assert report == ResilienceReport.from_dict(
            jobs.execute(request)).format()
        assert main(["obs", "query", str(tmp_path / "svc"), "--kind", "faults",
                     "--report"]) == 0
        assert capsys.readouterr().out == cli_stdout


def test_a_service_store_holds_artifacts_and_results_and_no_envelope(tmp_path):
    requests = [
        JobRequest.make("compile", "ks"),
        JobRequest.make("simulate", "ks", {"n_workers": 2, "fifo_depth": 4}),
        JobRequest.make("rtl", "ks", {"n_workers": 1}),
    ]
    journal, entries, warm = service_envelopes(tmp_path, requests)
    assert [env.kind for env in journal] == ["compile", "dse-eval", "cosim"]
    eval_key = journal[1].payload["eval_key"]
    assert sorted(warm) == sorted([r.key for r in requests] + [eval_key])
    assert entries == len(warm) == 4  # three artifacts + one point result
    assert all("job_id" in env.extra for env in journal)


def test_every_executed_job_is_journalled_whatever_its_end(tmp_path):
    """failed / timeout / cancelled jobs leave a record; store hits and
    coalesced submissions (which run nothing) leave none."""
    release = threading.Event()

    def run(request):
        workers = request.options["n_workers"]
        if workers == 1:
            return {"kind": "compile", "total_aluts": 7}
        if workers == 2:
            raise CgpaError("deadlock: nobody can make progress\n<wait-for graph>")
        if workers == 3:
            raise ValueError("executor bug")
        assert release.wait(10)
        return {"kind": "compile"}

    def request(workers, **kwargs):
        return JobRequest.make("compile", "ks", {"n_workers": workers}, **kwargs)

    async def body():
        store = ArtifactStore(tmp_path)
        queue = JobQueue(store, workers=2, run=run,
                         envelopes=EnvelopeWriter(store))
        await queue.start()
        try:
            done = queue.submit(request(1))
            assert await queue.wait(done, 10)
            assert queue.submit(request(1)).cached  # store hit
            records = [queue.submit(request(2)), queue.submit(request(3)),
                       queue.submit(request(4, deadline_s=0.05))]
            running = queue.submit(request(5))
            assert queue.submit(request(5)) is running  # coalesced
            for record in records:
                assert await queue.wait(record, 10)
            while running.status != "running":
                await asyncio.sleep(0.01)
            queue.cancel(running.job_id)
            assert await queue.wait(running, 10)
        finally:
            release.set()
            await queue.close()
        return queue

    queue = asyncio.run(body())
    journal = load_envelopes(tmp_path, strict=True)
    assert queue.stats.submitted == 7 and len(journal) == 5
    assert {(env.status, env.extra.get("error")) for env in journal} == {
        ("ok", None),
        ("failed", "deadlock: nobody can make progress"),
        ("failed", "internal: ValueError: executor bug"),
        ("timeout", "exceeded 0.05s deadline"),
        ("cancelled", "cancelled by client"),
    }
    by_status = {status: group for (status,), group
                 in journal.group_by("status").items()}
    assert len(by_status["failed"]) == 2
    assert len(by_status["cancelled"]) == len(by_status["timeout"]) == 1
    cancelled = by_status["cancelled"][0]
    assert cancelled.kind == "compile" and cancelled.payload == {}
    assert cancelled.extra["submissions"] == 2
    assert cancelled.config_hash == request(5).key
    # `obs query --status failed` is the user-facing form of the same.
    assert main(["obs", "query", str(tmp_path), "--status", "failed"]) == 0


def test_reports_render_beside_jobs_that_ended_without_one(tmp_path, capsys):
    """A failed ``faults`` job and a timed-out ``dse`` job journal typed
    records with empty payloads; `obs query --report`, `obs diff` and the
    dashboard render the good runs of the same kinds around them."""
    good_dse = JobRequest.make("dse", "ks", CASES["dse"][1])
    good_faults = JobRequest.make("faults", "ks", CASES["faults"][1])
    bad_faults = JobRequest.make("faults", "ks", {"plans": 1, "seed": 4})
    slow_dse = JobRequest.make(
        "dse", "ks", {**CASES["dse"][1], "fifo_depths": [8]}, deadline_s=0.05)
    release = threading.Event()

    def run(request):
        if request.key == bad_faults.key:
            raise CgpaError("deadlock: nobody can make progress")
        if request.key == slow_dse.key:
            assert release.wait(10)
        return jobs.execute(request)

    async def body():
        store = ArtifactStore(tmp_path)
        queue = JobQueue(store, workers=1, run=run,
                         envelopes=EnvelopeWriter(store))
        await queue.start()
        try:
            for request in (bad_faults, good_faults, slow_dse, good_dse):
                assert await queue.wait(queue.submit(request), 60)
                # slow_dse's record is terminal (timeout) while its run
                # still holds the one pool thread: let it go.
                if request is slow_dse:
                    release.set()
        finally:
            release.set()
            await queue.close()

    asyncio.run(body())
    journal = load_envelopes(tmp_path, strict=True)
    assert [(env.kind, env.status, env.payload == {}) for env in journal] == [
        ("faults", "failed", True), ("faults", "ok", False),
        ("dse-sweep", "timeout", True), ("dse-sweep", "ok", False),
    ]
    assert render_legacy_report(journal[0]) is None
    assert render_legacy_report(journal[2]) is None

    root = str(tmp_path)
    assert main(["obs", "query", root, "--kind", "faults", "--report"]) == 0
    assert capsys.readouterr().out == ResilienceReport.from_dict(
        jobs.execute(good_faults)).format() + "\n"
    assert main(["obs", "query", root, "--kind", "dse-sweep", "--report"]) == 0
    assert capsys.readouterr().out == format_pareto(
        SweepResult.from_json_dict(jobs.execute(good_dse))) + "\n"
    # Only report-less records match: a one-line error, not a traceback.
    assert main(["obs", "query", root, "--kind", "faults", "--status",
                 "failed", "--report"]) == 1
    assert capsys.readouterr().err.startswith("error: no matching envelope")
    assert main(["obs", "diff", root, root, "--fail-on-regression"]) == 0
    capsys.readouterr()

    # The dashboard lists the two reports and tallies all four jobs.
    page = render_dashboard(journal)
    for heading in ("Fault sweeps", "Design-space sweeps"):
        table = page.split(f"<h2>{heading}</h2>")[1].split("</table>")[0]
        assert table.count("<tr>") == 2  # header + the one real report
    tally = page.split("<h2>Service jobs</h2>")[1].split("</table>")[0]
    for job_kind, status in (("faults", "failed"), ("faults", "ok"),
                             ("dse", "timeout"), ("dse", "ok")):
        assert (f'<td>{job_kind}</td><td>{status}</td>'
                f'<td class="num">1</td>') in tally


def _run_queued(request, root):
    """The job's record after a one-worker queue on a store at ``root`` ran it."""

    async def submit():
        store = ArtifactStore(root)
        queue = JobQueue(store, workers=1, envelopes=EnvelopeWriter(store))
        await queue.start()
        try:
            record = queue.submit(request)
            assert await queue.wait(record, 30)
            return record
        finally:
            await queue.close()

    return asyncio.run(submit())


def test_overlong_integer_literal_fails_typed_and_fast(tmp_path):
    request = JobRequest.make("compile", "ks", source=OVERLONG_LITERAL)
    with pytest.raises(ParseError, match=r"^1:\d+: invalid integer constant"):
        jobs.execute(request)
    # The evaluator reports a point it cannot compile instead of raising.
    point = jobs.execute(JobRequest.make("simulate", "ks", source=OVERLONG_LITERAL))
    assert point["status"] == "error"
    assert point["error"].startswith("compile: 1:22: invalid integer constant")
    started = time.perf_counter()
    record = _run_queued(request, tmp_path)
    assert time.perf_counter() - started < 1.0
    assert record.status == "failed"
    assert "invalid integer constant" in record.error
    assert not record.error.startswith("internal:")
    (envelope,) = load_envelopes(tmp_path, strict=True)
    assert (envelope.status, envelope.extra["error"]) == ("failed", record.error)


#: ks whose set-up recurses without end before it builds anything.
UNBOUNDED_SETUP = KERNELS_BY_NAME["ks"].source.replace(
    "void setup(int na, int nb) {",
    "int forever(int n) { return forever(n + 1) + 1; }\n"
    "void setup(int na, int nb) {\n    forever(na);",
    1,
)


def test_unbounded_recursion_in_the_setup_is_a_typed_error_point(tmp_path):
    """The interpreter stops the set-up at its call depth, a typed error
    the evaluator reports in the point (as a compile error is), well
    before the step budget would have grown its stack to gigabytes.  The
    job itself ends ``done``: the evaluator turns every error of a run
    into a point."""
    request = JobRequest.make("simulate", "ks", source=UNBOUNDED_SETUP)
    assert UNBOUNDED_SETUP != KERNELS_BY_NAME["ks"].source
    point = jobs.execute(request)
    assert (point["status"], point["error"]) == (
        "error", f"call depth exceeded {MAX_CALL_DEPTH}"
    )
    record = _run_queued(request, tmp_path)
    assert (record.status, record.error) == ("done", None)  # never "internal:"
    assert ArtifactStore(tmp_path).get(record.key) == point


@pytest.mark.parametrize("shape", sorted(TOO_DEEP))
def test_too_deeply_nested_source_fails_typed_at_every_boundary(
    shape, tmp_path, monkeypatch, capsys
):
    request = JobRequest.make("compile", "ks", source=TOO_DEEP[shape])
    with pytest.raises(CgpaError, match="nesting too deep"):
        jobs.execute(request)

    record = _run_queued(request, tmp_path)
    assert record.status == "failed"
    assert record.error.startswith("nesting too deep")  # no "internal:"
    (envelope,) = load_envelopes(tmp_path, strict=True)
    assert (envelope.status, envelope.extra["error"]) == ("failed", record.error)

    # The CLI takes source only through a kernel spec.
    monkeypatch.setitem(KERNELS_BY_NAME, "ks", request.spec())
    assert main(["rtl", "ks", "--workers", "1", "--store", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: nesting too deep")
    assert "Traceback" not in captured.err
