"""Blocking HTTP client for the CGPA service (stdlib ``http.client``).

The client the harness smoke-test and the load benchmark drive: submit
a job, wait for its record (held status reads the server answers as the
job ends), fetch the artifact — or do all three with
:meth:`ServiceClient.run`.  One client holds one keep-alive connection
(and transparently reconnects if the server closed an idle one), so a
load generator uses one client per thread.

Failures are typed: any non-2xx answer raises :class:`ServiceError`
carrying the HTTP status and decoded payload, with :class:`RateLimited`
(429, with ``retry_after``) and :class:`JobFailed` (a job that executed
and failed) split out so callers can back off or report precisely.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time

from ..errors import CgpaError
from .contracts import JobRequest

#: Statuses a polled job can never leave.
_TERMINAL = ("done", "failed", "cancelled", "timeout")

#: A server-suggested Retry-After is honored only up to this many
#: seconds per retry — a misconfigured server must not park the client.
RETRY_AFTER_CAP_S = 5.0


class ServiceError(CgpaError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, payload: dict):
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(message or f"HTTP {status}")
        self.status = status
        self.payload = payload


class RateLimited(ServiceError):
    """HTTP 429; ``retry_after`` says when a token will be available."""

    def __init__(self, status: int, payload: dict, retry_after: float):
        super().__init__(status, payload)
        self.retry_after = retry_after


class JobFailed(ServiceError):
    """The job ran and failed (compile error, deadlock, executor bug)."""


class JobCancelled(ServiceError):
    """The job was cancelled (by this client or another) before it ran."""


class ServiceClient:
    """One keep-alive connection to one CGPA service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8337,
        client_id: str | None = None,
        timeout: float = 600.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- transport ---------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        for attempt in (1, 2):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._conn.request(method, path, body=payload, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                # The server may have reaped an idle keep-alive connection;
                # one reconnect covers that, a second failure is real.
                self.close()
                if attempt == 2:
                    raise
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            decoded = {"error": f"non-JSON response: {raw[:200]!r}"}
        if response.status == 429:
            retry_after = float(
                response.headers.get("Retry-After")
                or decoded.get("retry_after", 1.0)
            )
            raise RateLimited(response.status, decoded, retry_after)
        if response.status >= 400:
            raise ServiceError(response.status, decoded)
        return decoded

    # -- endpoints ---------------------------------------------------------

    def health(self) -> bool:
        return bool(self._request("GET", "/v1/healthz").get("ok"))

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def submit(self, request: JobRequest | dict) -> dict:
        """POST one job; returns its record dict (job_id, key, status...)."""
        if isinstance(request, JobRequest):
            request = request.to_dict()
        return self._request("POST", "/v1/jobs", body=request)

    def job(self, job_id: str, wait_s: float | None = None) -> dict:
        """The job's record; with ``wait_s`` the server holds the answer
        until the job is terminal or that many seconds have passed."""
        if wait_s is None:
            return self._request("GET", f"/v1/jobs/{job_id}")
        return self._request("GET", f"/v1/jobs/{job_id}?wait_s={wait_s:.3f}")

    def cancel(self, job_id: str) -> dict:
        """DELETE the job; returns its (terminal or soon-terminal) record."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The finished artifact; raises ServiceError 409 until done."""
        try:
            return self._request("GET", f"/v1/jobs/{job_id}/result")
        except RateLimited:
            raise
        except ServiceError as exc:
            if exc.status == 500:
                raise JobFailed(exc.status, exc.payload) from None
            raise

    def artifact(self, key: str) -> dict | None:
        try:
            return self._request("GET", f"/v1/artifacts/{key}")
        except ServiceError as exc:
            if exc.status == 404:
                return None
            raise

    # -- conveniences ------------------------------------------------------

    def _retry_delay(self, retry_after: float, attempt: int) -> float:
        """Capped server hint plus deterministic per-client jitter.

        The jitter fraction is a pure function of ``(client_id,
        attempt)``, so a retrying client's timing is reproducible while
        distinct clients still de-synchronise instead of stampeding the
        bucket on the same tick.
        """
        digest = hashlib.sha256(
            f"{self.client_id or 'anon'}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        base = min(max(retry_after, 0.0), RETRY_AFTER_CAP_S)
        return base * (1.0 + 0.25 * fraction)

    def _with_retries(self, call, retries: int):
        """Run ``call``, honoring up to ``retries`` RateLimited answers."""
        attempt = 0
        while True:
            try:
                return call()
            except RateLimited as exc:
                attempt += 1
                if attempt > retries:
                    raise
                time.sleep(self._retry_delay(exc.retry_after, attempt))

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        poll_s: float = 0.05,
        retries: int = 0,
    ) -> dict:
        """Wait until the job reaches a terminal state; returns its record.

        Each status read is held by the server until the job ends or
        ``poll_s`` passes, and the next follows at once: ``poll_s`` is the
        longest interval between two reads.  A non-terminal answer that
        comes early (a server ignoring ``wait_s``) sleeps out the rest of
        ``poll_s``, so the client never spins; past ``timeout``, 408.
        ``retries`` bounds how many 429 answers are absorbed (sleeping
        out each ``Retry-After``) before :class:`RateLimited` propagates;
        the default 0 keeps the historical raise-on-first-429 behavior.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = max(0.0, min(poll_s, deadline - asked))
            record = self._with_retries(lambda: self.job(job_id, hold), retries)
            if record["status"] in _TERMINAL:
                return record
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    408, {"error": f"job {job_id} still {record['status']} "
                                   f"after {timeout}s"}
                )
            time.sleep(max(0.0, min(asked + poll_s, deadline) - now))

    def run(
        self,
        request: JobRequest | dict,
        timeout: float = 600.0,
        poll_s: float = 0.05,
        retries: int = 0,
    ) -> dict:
        """Submit, wait, fetch: the whole round trip, returning the artifact.

        ``poll_s`` is :meth:`wait`'s (the longest interval between two
        held status reads).  Terminal failures are typed: ``cancelled`` raises
        :class:`JobCancelled`, ``failed``/``timeout`` raise
        :class:`JobFailed`.  ``retries`` lets submission and polling ride
        out up to that many 429s (default 0: first 429 raises, as before).
        """
        record = self._with_retries(lambda: self.submit(request), retries)
        if record["status"] not in _TERMINAL:
            record = self.wait(record["job_id"], timeout, poll_s, retries)
        if record["status"] == "cancelled":
            raise JobCancelled(
                409, {"error": record.get("error") or "job cancelled"}
            )
        if record["status"] in ("failed", "timeout"):
            raise JobFailed(500, {"error": record.get("error") or "job failed"})
        return self.result(record["job_id"])
