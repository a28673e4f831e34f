"""End-to-end HTTP tests: real sockets, real jobs, real artifacts.

Each test boots a :func:`repro.service.app.start_service` instance on an
ephemeral port with a tmp-dir store and drives it through
:class:`repro.service.client.ServiceClient` — the same path the
``service-mix`` benchmark workload and the CI smoke job use.  The full submit -> poll -> fetch
contract is exercised for every job kind at smoke scale, and the
service-specific behaviours (cache short-circuit, coalescing, 429,
409-until-done, error routes) get targeted scenarios with fake
executors where real kernels would only add runtime.
"""

import threading
import time

import pytest

from repro.service import JobRequest, RateLimited, ServiceClient, ServiceError
from repro.service.app import ServiceConfig, start_service
from repro.service.client import JobCancelled, JobFailed
from repro.service.jobs import execute
from repro.service.store import ArtifactStore


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(port=0, workers=2, store_root=str(tmp_path / "store"))
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture
def live_service(tmp_path):
    """A real service (real executor) plus a connected client."""
    with start_service(_config(tmp_path)) as handle:
        with ServiceClient(handle.host, handle.port, client_id="t") as client:
            yield handle, client


# Smoke-scale requests covering every job kind; ks is the cheapest
# kernel end to end (rtl cosim for it takes well under a second).
KIND_REQUESTS = {
    "compile": JobRequest.make("compile", "ks"),
    "simulate": JobRequest.make("simulate", "ks", {"n_workers": 2}),
    "dse": JobRequest.make(
        "dse",
        "ks",
        {"strategy": "grid", "policies": ["p1"], "n_workers": [1, 2],
         "fifo_depths": [4], "max_cycles": 200_000},
    ),
    "faults": JobRequest.make(
        "faults", "ks", {"plans": 2, "max_cycles": 200_000}
    ),
    "rtl": JobRequest.make("rtl", "ks", {"n_workers": 1}),
}


class TestRoundTrips:
    @pytest.mark.parametrize("kind", sorted(KIND_REQUESTS))
    def test_submit_poll_fetch_matches_direct_execution(
        self, live_service, kind
    ):
        _, client = live_service
        request = KIND_REQUESTS[kind]
        record = client.submit(request)
        assert record["kind"] == kind and record["key"] == request.key
        final = client.wait(record["job_id"], timeout=120)
        assert final["status"] == "done", final.get("error")
        artifact = client.result(record["job_id"])
        # The service answer is exactly what a direct run produces.
        assert artifact == execute(request)
        # The artifact is also addressable by content key.
        assert client.artifact(request.key) == artifact

    def test_resubmission_is_served_from_the_store(self, live_service):
        handle, client = live_service
        request = KIND_REQUESTS["compile"]
        first = client.run(request, timeout=120)
        before = client.stats()
        record = client.submit(request)
        assert record["status"] == "done" and record["cached"]
        assert client.result(record["job_id"]) == first
        after = client.stats()
        assert after["queue"]["cached"] == before["queue"]["cached"] + 1
        assert after["store"]["warm_hits"] > before["store"]["warm_hits"]
        assert after["queue"]["executed"] == before["queue"]["executed"]

    def test_repeated_mixed_workload_executes_each_job_once(self, live_service):
        # Shuffled repeats of three kinds: the first pass executes every
        # unique request exactly once (the rest coalesce or hit the filling
        # store); the identical second pass is 100% store-served.
        _, client = live_service
        unique = [KIND_REQUESTS[kind] for kind in ("compile", "simulate", "dse")]
        workload = [unique[i % 3] for i in (0, 1, 2, 1, 0, 2, 2, 0, 1)]
        first = [client.run(request, timeout=120) for request in workload]
        cold = client.stats()["queue"]
        assert cold["executed"] == len(unique) and cold["failed"] == 0
        second = [client.run(request, timeout=120) for request in workload]
        warm = client.stats()["queue"]
        assert second == first
        assert warm["cached"] - cold["cached"] == len(workload)
        assert warm["executed"] == cold["executed"]

    def test_store_survives_service_restart(self, tmp_path):
        request = KIND_REQUESTS["compile"]
        with start_service(_config(tmp_path)) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                artifact = client.run(request, timeout=120)
        # Same store root, new process-equivalent: served cold from disk.
        with start_service(_config(tmp_path)) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                record = client.submit(request)
                assert record["status"] == "done" and record["cached"]
                assert client.result(record["job_id"]) == artifact
                assert client.stats()["store"]["cold_hits"] >= 1


class TestCoalescing:
    def test_identical_inflight_submissions_share_one_job(self, tmp_path):
        gate = threading.Event()
        calls = []

        def fake_run(request):
            calls.append(request.key)
            assert gate.wait(10)
            return {"kind": request.kind, "echo": request.kernel}

        with start_service(_config(tmp_path), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                request = JobRequest.make("compile", "ks")
                first = client.submit(request)
                second = client.submit(request)
                assert second["job_id"] == first["job_id"]
                assert second["submissions"] == 2
                # Not ready yet: the result endpoint answers 409.
                with pytest.raises(ServiceError) as info:
                    client.result(first["job_id"])
                assert info.value.status == 409
                gate.set()
                final = client.wait(first["job_id"], timeout=10)
                assert final["status"] == "done"
                assert calls == [request.key]  # executed exactly once
                assert client.stats()["queue"]["coalesced"] == 1
                artifact = client.result(first["job_id"])
                assert artifact == {"kind": "compile", "echo": "ks"}


class TestRateLimiting:
    def test_429_with_retry_after_then_recovery(self, tmp_path):
        clock = [0.0]
        config = _config(tmp_path, rate_capacity=2, rate_refill_per_s=1.0)
        with start_service(
            config, run=lambda r: {"ok": True}, clock=lambda: clock[0]
        ) as handle:
            with ServiceClient(
                handle.host, handle.port, client_id="greedy"
            ) as client:
                client.submit(JobRequest.make("compile", "ks"))
                client.submit(JobRequest.make("simulate", "ks"))
                with pytest.raises(RateLimited) as info:
                    client.submit(JobRequest.make("compile", "em3d"))
                assert info.value.retry_after == pytest.approx(1.0, abs=0.01)
                assert client.stats()["rate"]["rejected"] == 1
                # Reads are never limited; only submissions spend tokens.
                assert client.health()
                clock[0] = 1.0
                client.submit(JobRequest.make("compile", "em3d"))

    def test_clients_have_independent_buckets(self, tmp_path):
        config = _config(tmp_path, rate_capacity=1, rate_refill_per_s=0.0)
        with start_service(
            config, run=lambda r: {"ok": True}, clock=lambda: 0.0
        ) as handle:
            with ServiceClient(handle.host, handle.port, client_id="a") as a:
                a.submit(JobRequest.make("compile", "ks"))
                with pytest.raises(RateLimited):
                    a.submit(JobRequest.make("compile", "em3d"))
            with ServiceClient(handle.host, handle.port, client_id="b") as b:
                b.submit(JobRequest.make("compile", "em3d"))


class TestErrorPaths:
    def test_failed_job_raises_job_failed(self, tmp_path):
        from repro.errors import CgpaError

        def fake_run(request):
            raise CgpaError("deadlock: all workers stalled")

        with start_service(_config(tmp_path), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(JobFailed, match="deadlock"):
                    client.run(JobRequest.make("compile", "ks"), timeout=10)
                # The failure is not cached: stats show no store entry.
                assert client.stats()["store"]["entries"] == 0

    def test_contract_violations_answer_400(self, live_service):
        _, client = live_service
        for body in (
            {"kind": "transmogrify", "kernel": "ks"},
            {"kind": "compile", "kernel": "nope"},
            {"kind": "compile", "kernel": "ks", "options": {"bogus": 1}},
            [1, 2, 3],
        ):
            with pytest.raises(ServiceError) as info:
                client.submit(body)
            assert info.value.status == 400

    def test_unknown_routes_and_ids_answer_404(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as info:
            client.job("job-99999999")
        assert info.value.status == 404
        assert client.artifact("0" * 64) is None
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/v2/nope")
        assert info.value.status == 404
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/v1/jobs")  # wrong method
        assert info.value.status == 405

    def test_non_json_body_answers_400(self, live_service):
        handle, client = live_service
        import http.client as hc

        conn = hc.HTTPConnection(handle.host, handle.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/jobs", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestCancellation:
    def test_cancel_queued_job_is_terminal(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        def fake_run(request):
            started.set()
            assert gate.wait(10)
            return {"ok": True}

        config = _config(tmp_path, workers=1)
        with start_service(config, run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                running = client.submit(JobRequest.make("compile", "ks"))
                assert started.wait(10)
                queued = client.submit(JobRequest.make("simulate", "ks"))
                assert queued["status"] == "queued"
                cancelled = client.cancel(queued["job_id"])
                assert cancelled["status"] == "cancelled"
                assert client.job(queued["job_id"])["status"] == "cancelled"
                # A cancelled job never produces a result.
                with pytest.raises(ServiceError) as info:
                    client.result(queued["job_id"])
                assert info.value.status == 409
                # Cancelling a terminal record is an idempotent no-op.
                assert client.cancel(queued["job_id"])["status"] == "cancelled"
                gate.set()
                final = client.wait(running["job_id"], timeout=10)
                assert final["status"] == "done"
                assert client.stats()["queue"]["cancelled"] == 1

    def test_cancel_running_job_raises_typed_error_from_run(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        def fake_run(request):
            started.set()
            gate.wait(10)
            return {"ok": True}

        config = _config(tmp_path, workers=1)
        with start_service(config, run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                request = JobRequest.make("compile", "ks")
                record = client.submit(request)
                assert started.wait(10)

                outcome = {}

                def run_and_capture():
                    with ServiceClient(handle.host, handle.port) as peer:
                        try:
                            peer.run(request, timeout=30)
                        except BaseException as exc:
                            outcome["exc"] = exc

                waiter = threading.Thread(target=run_and_capture)
                waiter.start()
                # Let the peer's submission coalesce onto the running job
                # before cancelling, so its run() observes the cancel.
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if client.job(record["job_id"])["submissions"] >= 2:
                        break
                    time.sleep(0.01)
                client.cancel(record["job_id"])
                final = client.wait(record["job_id"], timeout=10)
                assert final["status"] == "cancelled"
                waiter.join(20)
                assert isinstance(outcome.get("exc"), JobCancelled)
                gate.set()  # release the abandoned executor thread
                assert client.stats()["queue"]["cancelled"] == 1

    def test_unknown_job_cancel_answers_404(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as info:
            client.cancel("job-99999999")
        assert info.value.status == 404


class TestDeadlines:
    def test_queue_default_deadline_lands_timeout_state(self, tmp_path):
        gate = threading.Event()

        def fake_run(request):
            gate.wait(5)
            return {"ok": True}

        config = _config(tmp_path, workers=1, job_deadline_s=0.2)
        with start_service(config, run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                record = client.submit(JobRequest.make("compile", "ks"))
                final = client.wait(record["job_id"], timeout=10)
                assert final["status"] == "timeout"
                assert "deadline" in final["error"]
                with pytest.raises(JobFailed, match="deadline"):
                    client.result(record["job_id"])
                assert client.stats()["queue"]["timeouts"] == 1
                # Nothing landed in the store for the timed-out key.
                assert client.artifact(record["key"]) is None
                gate.set()

    def test_per_request_deadline_rides_outside_the_key(self, tmp_path):
        bounded = JobRequest.make("compile", "ks", deadline_s=0.15)
        # The deadline is transport-level: the content key is unchanged,
        # so a deadline must never split the artifact address space.
        assert bounded.key == JobRequest.make("compile", "ks").key
        gate = threading.Event()

        def fake_run(request):
            gate.wait(5)
            return {"ok": True}

        with start_service(_config(tmp_path, workers=1), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                record = client.submit(bounded)
                final = client.wait(record["job_id"], timeout=10)
                assert final["status"] == "timeout"
                gate.set()


class TestDrain:
    def test_drain_finishes_inflight_then_rejects_new_submissions(
        self, tmp_path
    ):
        gate = threading.Event()
        started = threading.Event()

        def fake_run(request):
            started.set()
            assert gate.wait(10)
            return {"ok": True}

        config = _config(tmp_path, workers=1, drain_timeout=8.0)
        handle = start_service(config, run=fake_run)
        client = ServiceClient(handle.host, handle.port)
        try:
            record = client.submit(JobRequest.make("compile", "ks"))
            assert started.wait(10)
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            deadline = time.monotonic() + 5
            while (
                not handle.service.queue.draining
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert handle.service.queue.draining
            # The HTTP front end stays up through the drain: polls work,
            # new submissions answer 503.
            health = client._request("GET", "/v1/healthz")
            assert health["status"] == "draining" and health["ok"] is False
            with pytest.raises(ServiceError) as info:
                client.submit(JobRequest.make("simulate", "ks"))
            assert info.value.status == 503
            gate.set()
            stopper.join(20)
            assert not stopper.is_alive()
            # The in-flight job landed its artifact before shutdown.
            assert handle.service.queue.get(record["job_id"]).status == "done"
            store = ArtifactStore(tmp_path / "store")
            assert store.get(record["key"]) == {"ok": True}
        finally:
            gate.set()
            client.close()
            handle.stop()

    def test_healthz_reports_degraded_queue(self, tmp_path):
        with start_service(_config(tmp_path), run=lambda r: {}) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                assert client._request("GET", "/v1/healthz")["status"] == "ok"
                handle.service.queue._degraded = True
                health = client._request("GET", "/v1/healthz")
                assert health["status"] == "degraded" and health["ok"]


class TestCorruptArtifacts:
    def test_corrupt_stored_artifact_reexecutes_job(self, tmp_path):
        from repro.fleet.chaos import corrupt_artifact

        calls = []

        def fake_run(request):
            calls.append(request.key)
            return {"value": 42}

        with start_service(_config(tmp_path), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                request = JobRequest.make("compile", "ks")
                assert client.run(request, timeout=10) == {"value": 42}
                assert len(calls) == 1
                store = handle.service.store
                assert corrupt_artifact(store.root, key=request.key) == (
                    request.key
                )
                store.drop_memory()  # cold reader, like a restarted server
                # The corrupt artifact reads as a miss: the job simply
                # re-executes and re-publishes under the same key.
                assert client.run(request, timeout=10) == {"value": 42}
                assert len(calls) == 2
                stats = client.stats()["store"]
                assert stats["corrupt"] >= 1
                quarantine = store.root / "quarantine"
                assert any(quarantine.iterdir())
                assert client.artifact(request.key) == {"value": 42}


class TestClientRetries:
    def test_retries_absorb_rate_limits(self, tmp_path):
        config = _config(tmp_path, rate_capacity=1, rate_refill_per_s=50.0)
        with start_service(config, run=lambda r: {"ok": True}) as handle:
            with ServiceClient(
                handle.host, handle.port, client_id="r"
            ) as client:
                client.submit(JobRequest.make("compile", "ks"))
                # Default keeps the historical contract: first 429 raises.
                with pytest.raises(RateLimited):
                    client.submit(JobRequest.make("simulate", "ks"))
                # retries= sleeps out the Retry-After hints and lands it.
                artifact = client.run(
                    JobRequest.make("simulate", "ks"), timeout=10, retries=5
                )
                assert artifact == {"ok": True}

    def test_retry_delay_is_deterministic_and_capped(self, tmp_path):
        from repro.service.client import RETRY_AFTER_CAP_S

        client = ServiceClient("127.0.0.1", 1, client_id="x")
        assert client._retry_delay(1.0, 1) == client._retry_delay(1.0, 1)
        assert client._retry_delay(1.0, 1) != client._retry_delay(1.0, 2)
        # A hostile/misconfigured Retry-After cannot park the client.
        assert client._retry_delay(1e9, 1) <= RETRY_AFTER_CAP_S * 1.25
        other = ServiceClient("127.0.0.1", 1, client_id="y")
        assert client._retry_delay(1.0, 1) != other._retry_delay(1.0, 1)
