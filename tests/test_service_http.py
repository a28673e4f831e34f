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

import json
import threading
import time

import pytest

from repro.kernels import KS
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


def _raw_status(handle, request: bytes) -> int:
    """Send ``request`` bytes on a fresh socket; the answer's status code."""
    import socket

    with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
        sock.sendall(request)
        answer = b""
        while b"\r\n" not in answer:
            chunk = sock.recv(4096)
            assert chunk, f"connection closed with no status: {answer!r}"
            answer += chunk
    return int(answer.split(b" ", 2)[1])


class TestMalformedRequests:
    """Each probe is answered with a status, and the service keeps serving."""

    @pytest.mark.parametrize(
        "length",
        ["-5", "+5", "5_0", " ", "5x", "٥",
         pytest.param("0" * 5000, id="5000-zeros")],
    )
    def test_content_length_must_be_ascii_digits(self, live_service, length):
        handle, client = live_service
        request = (
            f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}"
        ).encode()
        assert _raw_status(handle, request) == 400
        assert client.health()

    def test_header_line_over_the_reader_limit_answers_431(self, live_service):
        from repro.service.app import MAX_LINE_BYTES

        handle, client = live_service
        request = (
            b"GET /v1/healthz HTTP/1.1\r\nX-Filler: "
            + b"a" * (MAX_LINE_BYTES + 1) + b"\r\n\r\n"
        )
        assert _raw_status(handle, request) == 431
        assert client.health()

    def test_twenty_thousand_header_lines_answer_431(self, live_service):
        handle, client = live_service
        request = (
            b"GET /v1/healthz HTTP/1.1\r\n"
            + b"".join(b"X-Filler-%d: a\r\n" % i for i in range(20_000))
            + b"\r\n"
        )
        assert _raw_status(handle, request) == 431
        assert client.health()

    def test_header_section_over_the_byte_cap_answers_431(self, live_service):
        from repro.service.app import MAX_HEADER_BYTES, MAX_LINE_BYTES

        handle, client = live_service
        line = b"X-Filler: " + b"a" * (MAX_LINE_BYTES // 2) + b"\r\n"
        count = MAX_HEADER_BYTES // len(line) + 1
        request = b"GET /v1/healthz HTTP/1.1\r\n" + line * count + b"\r\n"
        assert _raw_status(handle, request) == 431
        assert client.health()

    def test_request_line_over_the_reader_limit_answers_414(self, live_service):
        handle, client = live_service
        request = b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.1\r\n\r\n"
        assert _raw_status(handle, request) == 414
        assert client._request("GET", "/v1/healthz")["status"] == "ok"

    @pytest.mark.parametrize("body", [
        pytest.param(b"[" * 100_000, id="100000-nested-arrays"),
        pytest.param(b"1" * 5000, id="5000-digit-integer"),
    ])
    def test_undecodable_body_answers_400(self, live_service, body):
        handle, client = live_service
        request = (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        )
        assert _raw_status(handle, request) == 400
        assert client._request("GET", "/v1/healthz")["status"] == "ok"

    def test_chunked_body_answers_501_once_and_closes(self, live_service):
        import socket

        handle, client = live_service
        request = (
            b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"7\r\n{\"a\": 1}\r\n0\r\n\r\n"
        )
        answer = b""
        with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
            sock.sendall(request)
            while True:  # everything the service sends before it closes
                chunk = sock.recv(4096)
                if not chunk:
                    break
                answer += chunk
        assert answer.count(b"HTTP/1.1 ") == 1, answer
        assert answer.startswith(b"HTTP/1.1 501 "), answer
        assert client._request("GET", "/v1/healthz")["status"] == "ok"

    def test_idle_connection_is_closed_without_an_answer(self, live_service, monkeypatch):
        import socket

        from repro.service import app

        monkeypatch.setattr(app, "KEEP_ALIVE_TIMEOUT_S", 0.3)
        handle, client = live_service
        with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
            assert sock.recv(4096) == b""  # closed, nothing sent
        assert client.health()

    def test_trickled_headers_answer_408(self, live_service, monkeypatch):
        import socket

        from repro.service import app

        monkeypatch.setattr(app, "REQUEST_DEADLINE_S", 0.5)
        handle, client = live_service
        answer = b""
        with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n")
            sock.settimeout(0.2)
            for i in range(50):  # one header line per 0.2 s, 10 s at most
                try:
                    sock.sendall(b"X-Trickle-%d: a\r\n" % i)
                    answer += sock.recv(4096)
                except socket.timeout:
                    continue
                except OSError:  # the service closed the connection
                    answer += sock.recv(4096)
                if b"\r\n" in answer:
                    break
        assert int(answer.split(b" ", 2)[1]) == 408
        assert client.health()

    def test_body_shorter_than_its_length_answers_408(self, live_service, monkeypatch):
        from repro.service import app

        monkeypatch.setattr(app, "REQUEST_DEADLINE_S", 0.5)
        handle, client = live_service
        request = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
        assert _raw_status(handle, request) == 408
        assert client.health()


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


class TestQuietStop:
    def test_stop_during_a_keep_alive_loop_logs_no_cancelled_error(self, tmp_path, caplog):
        """stop() cancels every connection task; one that is closing its
        writer as the cancel lands must still end normally, or asyncio's
        stream callback logs its CancelledError as an unhandled error."""
        import asyncio
        import logging

        caplog.set_level(logging.ERROR)
        for round_ in range(8):
            handle = start_service(_config(tmp_path, store_root=str(tmp_path / f"s{round_}")))
            running = threading.Event()
            done = threading.Event()

            def loop():
                try:
                    with ServiceClient(handle.host, handle.port, client_id="t") as client:
                        while not done.is_set():
                            client.health()
                            running.set()
                except (ServiceError, OSError):
                    pass  # the service went away under the loop
                finally:
                    running.set()

            thread = threading.Thread(target=loop)
            thread.start()
            try:
                assert running.wait(10)
                time.sleep(0.05)
            finally:
                handle.stop()
                done.set()
                thread.join(10)
        unhandled = [
            record for record in caplog.records
            if "Exception in callback" in record.getMessage()
            or record.exc_info and isinstance(record.exc_info[1], asyncio.CancelledError)
        ]
        assert not unhandled, [record.getMessage() for record in unhandled]


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


def _gated(calls=None):
    """A run that blocks until its gate opens, and the gate."""
    gate = threading.Event()
    started = threading.Event()

    def fake_run(request):
        if calls is not None:
            calls.append(request.key)
        started.set()
        gate.wait(10)
        return {"ok": True}

    return fake_run, gate, started


class HeldRead(threading.Thread):
    """``GET /v1/jobs/<id>?wait_s=`` on a connection of its own; ``answer``
    is the record (or the exception) and ``at`` when it arrived."""

    def __init__(self, handle, job_id: str, wait_s: float):
        super().__init__(daemon=True)
        self.handle, self.job_id, self.wait_s = handle, job_id, wait_s
        self.answer = self.at = None
        self.start()

    def run(self):
        with ServiceClient(self.handle.host, self.handle.port) as client:
            try:
                self.answer = client.job(self.job_id, wait_s=self.wait_s)
            except Exception as exc:  # the test inspects it
                self.answer = exc
        self.at = time.monotonic()

    def result(self, timeout: float = 10.0):
        self.join(timeout)
        assert not self.is_alive(), "held read never answered"
        return self.answer


def _raw_get(handle, target: str) -> tuple[int, bytes]:
    import http.client as hc

    conn = hc.HTTPConnection(handle.host, handle.port, timeout=10)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestWaitProtocol:
    """``GET /v1/jobs/<id>?wait_s=S`` parks on the job's done event."""

    def test_held_read_answers_when_the_job_ends(self, tmp_path):
        fake_run, gate, started = _gated()
        with start_service(_config(tmp_path), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                record = client.submit(JobRequest.make("compile", "ks"))
                assert started.wait(10)
                held = HeldRead(handle, record["job_id"], 5)
                time.sleep(0.3)
                assert held.is_alive()  # still held: the job is running
                opened = time.monotonic()
                gate.set()
                answer = held.result()
                assert answer["status"] == "done"
                assert held.at - opened < 0.5  # not after the 5 s hold

    def test_without_wait_s_the_record_bytes_are_unchanged(self, tmp_path):
        fake_run, gate, started = _gated()
        with start_service(_config(tmp_path), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                record = client.submit(JobRequest.make("compile", "ks"))
                assert started.wait(10)
                job = handle.service.queue.get(record["job_id"])
                for status in ("running", "done"):
                    if status == "done":
                        gate.set()
                        client.wait(record["job_id"], timeout=10)
                    expected = json.dumps(job.to_dict(), sort_keys=True).encode()
                    target = f"/v1/jobs/{record['job_id']}"
                    assert _raw_get(handle, target) == (200, expected)
                    assert _raw_get(handle, target + "?wait_s=0") == (200, expected)
                    assert _raw_get(handle, target + "?other=1") == (200, expected)
                    assert job.status == status

    def test_unknown_ids_bad_values_and_the_cap(self, tmp_path, monkeypatch):
        from repro.service import app

        fake_run, gate, started = _gated()
        with start_service(_config(tmp_path), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                began = time.monotonic()
                with pytest.raises(ServiceError) as info:
                    client.job("job-99999999", wait_s=5)
                assert info.value.status == 404
                assert time.monotonic() - began < 1.0
                record = client.submit(JobRequest.make("compile", "ks"))
                assert started.wait(10)
                target = f"/v1/jobs/{record['job_id']}?wait_s="
                for bad in ("abc", "", "-1", "-0.5", "nan", "inf", "-inf", "1e400"):
                    status, body = _raw_get(handle, target + bad)
                    assert status == 400, bad
                    assert not json.loads(body)["error"].startswith("internal:")
                monkeypatch.setattr(app, "MAX_WAIT_S", 0.2)
                began = time.monotonic()
                assert client.job(record["job_id"], wait_s=1e9)["status"] == "running"
                assert time.monotonic() - began < 2.0
                gate.set()

    def test_coalesced_waiters_both_wake(self, tmp_path):
        calls = []
        fake_run, gate, started = _gated(calls)
        with start_service(_config(tmp_path), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                request = JobRequest.make("compile", "ks")
                first = client.submit(request)
                second = client.submit(request)
                assert second["job_id"] == first["job_id"]
                assert started.wait(10)
                held = [HeldRead(handle, first["job_id"], 10) for _ in range(2)]
                time.sleep(0.2)
                gate.set()
                assert [h.result()["status"] for h in held] == ["done", "done"]
                assert calls == [request.key]

    def test_cancel_and_deadline_wake_a_held_read(self, tmp_path):
        fake_run, gate, started = _gated()
        config = _config(tmp_path, workers=1)
        with start_service(config, run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.submit(JobRequest.make("compile", "ks"))
                assert started.wait(10)
                queued = client.submit(JobRequest.make("simulate", "ks"))
                held = HeldRead(handle, queued["job_id"], 10)
                time.sleep(0.2)
                cancelled = time.monotonic()
                client.cancel(queued["job_id"])
                assert held.result()["status"] == "cancelled"
                assert held.at - cancelled < 1.0
                gate.set()
        fake_run, gate, started = _gated()
        with start_service(_config(tmp_path / "deadline"), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                record = client.submit(
                    JobRequest.make("compile", "ks", deadline_s=0.3))
                began = time.monotonic()
                answer = client.job(record["job_id"], wait_s=10)
                assert answer["status"] == "timeout"
                assert time.monotonic() - began < 2.0
                gate.set()

    def test_a_cached_submission_answers_at_once(self, tmp_path):
        with start_service(_config(tmp_path), run=lambda r: {"ok": True}) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                request = JobRequest.make("compile", "ks")
                client.run(request, timeout=10)
                record = client.submit(request)
                assert record["cached"]
                began = time.monotonic()
                assert client.job(record["job_id"], wait_s=5)["status"] == "done"
                assert time.monotonic() - began < 0.5

    def test_stop_with_a_held_read_on_a_job_that_never_ends(self, tmp_path, caplog):
        import gc

        fake_run, gate, started = _gated()
        config = _config(tmp_path, workers=1, drain_timeout=0.5)
        handle = start_service(config, run=fake_run)
        try:
            with ServiceClient(handle.host, handle.port) as client:
                running = client.submit(JobRequest.make("compile", "ks"))
                assert started.wait(10)
                queued = client.submit(JobRequest.make("simulate", "ks"))
            held = [HeldRead(handle, record["job_id"], 20)
                    for record in (running, queued)]
            time.sleep(0.2)
            began = time.monotonic()
            handle.stop()
            assert time.monotonic() - began < config.drain_timeout + 2.0
            assert not handle._thread.is_alive()
            # The running job's waiter hears it fail on shutdown, unless
            # its connection closes first; the queued job's connection is
            # closed under its waiter.  Neither hangs.
            first = held[0].result(2)
            assert isinstance(first, Exception) or first["status"] == "failed"
            assert isinstance(held[1].result(2), Exception)
            gc.collect()
            assert "pending" not in caplog.text
        finally:
            gate.set()
            handle.stop()


class TestClientWait:
    def test_never_spins_on_a_server_that_ignores_wait_s(self, monkeypatch):
        client = ServiceClient("127.0.0.1", 1)
        reads = []

        def job(job_id, wait_s=None):
            reads.append(wait_s)
            return {"status": "running"}  # at once, whatever wait_s says

        monkeypatch.setattr(client, "job", job)
        with pytest.raises(ServiceError) as info:
            client.wait("job-00000001", timeout=0.5, poll_s=0.05)
        assert info.value.status == 408
        assert 5 <= len(reads) <= 0.5 / 0.05 + 2
        assert all(0 <= wait_s <= 0.05 for wait_s in reads)

    def test_a_job_that_ends_inside_one_hold_costs_three_requests(self, tmp_path):
        def slow_run(request):
            time.sleep(0.2)
            return {"ok": True}

        with start_service(_config(tmp_path), run=slow_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                before = handle.service.requests_served
                began = time.monotonic()
                assert client.run(
                    JobRequest.make("compile", "ks"), poll_s=5, timeout=30
                ) == {"ok": True}
                assert handle.service.requests_served - before == 3
                assert time.monotonic() - began < 2.0

    def test_timeout_is_a_408(self, tmp_path):
        fake_run, gate, started = _gated()
        with start_service(_config(tmp_path), run=fake_run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                record = client.submit(JobRequest.make("compile", "ks"))
                began = time.monotonic()
                with pytest.raises(ServiceError) as info:
                    client.wait(record["job_id"], timeout=0.4, poll_s=0.1)
                assert info.value.status == 408
                assert "still running" in str(info.value)
                assert 0.4 <= time.monotonic() - began < 1.5
                gate.set()


class TestCompletionOffTheLoop:
    def test_put_and_journal_run_on_neither_the_loop_nor_a_job_thread(
        self, tmp_path
    ):
        import asyncio

        from repro.obs.emit import EnvelopeWriter
        from repro.service.queue import JobQueue

        threads = {"put": [], "write": [], "run": []}

        class Store(ArtifactStore):
            def put(self, key, artifact):
                threads["put"].append(threading.get_ident())
                return super().put(key, artifact)

        class Writer(EnvelopeWriter):
            def write(self, envelope):
                threads["write"].append(threading.get_ident())
                super().write(envelope)

        def run(request):
            threads["run"].append(threading.get_ident())
            assert threading.current_thread().name.startswith("cgpa-job")
            return {"ok": True}

        async def body():
            store = Store(tmp_path)
            queue = JobQueue(store, workers=2, run=run, envelopes=Writer(store))
            await queue.start()
            try:
                records = [queue.submit(JobRequest.make("compile", "ks",
                                                        {"n_workers": n}))
                           for n in (1, 2, 4)]
                for record in records:
                    assert await queue.wait(record, 10)
                    assert record.status == "done"
            finally:
                await queue.close()
            return threading.get_ident()

        loop_thread = asyncio.run(body())
        assert len(threads["put"]) == len(threads["write"]) == 3
        off_loop = set(threads["put"]) | set(threads["write"])
        assert loop_thread not in off_loop
        assert not off_loop & set(threads["run"])

    def test_concurrent_completions_journal_every_job_once(self, tmp_path):
        """Four job threads and the default executor's threads finishing
        48 jobs at a short switch interval: every artifact is stored,
        every job journals exactly one whole line, the stats add up."""
        import asyncio
        import sys

        from repro.obs.emit import EnvelopeWriter
        from repro.obs.query import load_envelopes
        from repro.service.queue import JobQueue

        async def body():
            store = ArtifactStore(tmp_path)
            queue = JobQueue(store, workers=4, envelopes=EnvelopeWriter(store),
                             run=lambda r: {"rows": [r.options["n_workers"]] * 2000})
            await queue.start()
            try:
                # Distinct sources, so 48 keys and no coalescing.
                records = [queue.submit(JobRequest.make(
                    "compile", "ks", {"n_workers": n % 16 + 1},
                    source=f"{KS.source}\n// {n}\n")) for n in range(48)]
                for record in records:
                    assert await queue.wait(record, 30)
            finally:
                await queue.close()
            return queue, records

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            queue, records = asyncio.run(body())
        finally:
            sys.setswitchinterval(interval)
        assert {record.status for record in records} == {"done"}
        assert queue.stats.executed == 48 and not queue._inflight
        journal = load_envelopes(tmp_path, strict=True)
        assert sorted(env.extra["job_id"] for env in journal) == sorted(
            record.job_id for record in records)
        store = ArtifactStore(tmp_path)
        for record in records:
            n = record.request.options["n_workers"]
            assert store.get(record.key) == {"rows": [n] * 2000}

    def test_a_terminal_status_finds_its_artifact_and_journal_line(
        self, tmp_path, monkeypatch
    ):
        """A slow store write and a slow journal line: whoever sees a
        terminal status still finds both, because the record turns
        terminal only after them.  Every end journals its status."""
        from repro.errors import CgpaError
        from repro.obs.emit import EnvelopeWriter
        from repro.obs.query import load_envelopes

        def slowly(method):
            def slow(self, *args):
                time.sleep(0.15)
                return method(self, *args)
            return slow

        monkeypatch.setattr(ArtifactStore, "put", slowly(ArtifactStore.put))
        monkeypatch.setattr(EnvelopeWriter, "write", slowly(EnvelopeWriter.write))
        gate = threading.Event()

        def run(request):
            if request.kind == "rtl":
                raise CgpaError("deadlock: nobody can make progress")
            if request.kind == "simulate":
                gate.wait(10)
            return {"ok": True}

        def journalled(store_root, job_id):
            return [env.status for env in load_envelopes(store_root)
                    if env.extra.get("job_id") == job_id]

        config = _config(tmp_path, workers=2)
        with start_service(config, run=run) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                request = JobRequest.make("compile", "ks")
                record = client.submit(request)
                assert client.wait(record["job_id"], timeout=10)["status"] == "done"
                assert journalled(config.store_root, record["job_id"]) == ["ok"]
                assert client.result(record["job_id"]) == {"ok": True}
                for request, status in (
                    (JobRequest.make("rtl", "ks"), "failed"),
                    (JobRequest.make("simulate", "ks", deadline_s=0.2), "timeout"),
                ):
                    record = client.submit(request)
                    final = client.wait(record["job_id"], timeout=10)
                    assert final["status"] == status
                    assert journalled(config.store_root, record["job_id"]) == [status]
                # The timed-out run still holds one pool thread; this one
                # takes the other and is cancelled while running.
                record = client.submit(JobRequest.make("simulate", "em3d"))
                while client.job(record["job_id"])["status"] != "running":
                    time.sleep(0.01)
                client.cancel(record["job_id"])
                final = client.wait(record["job_id"], timeout=10)
                assert final["status"] == "cancelled"
                assert journalled(config.store_root, record["job_id"]) == ["cancelled"]
                gate.set()


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
