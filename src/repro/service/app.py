"""The CGPA service: a stdlib-only asyncio HTTP/1.1 JSON server.

No framework, no dependencies: one ``asyncio.start_server`` callback
parses HTTP/1.1 (request line, headers, Content-Length body, keep-alive)
and routes to a handful of JSON endpoints::

    POST   /v1/jobs              submit a JobRequest        -> job record
    GET    /v1/jobs/<id>[?wait_s=S]  status; held until terminal or
                                 min(S, MAX_WAIT_S) s       -> job record
    DELETE /v1/jobs/<id>         cancel a queued/running job
    GET    /v1/jobs/<id>/result  fetch the artifact (409 until done)
    GET    /v1/artifacts/<key>   fetch any artifact by content key
    GET    /v1/stats             store/queue/rate-limit counters
    GET    /v1/healthz           liveness probe (ok / degraded / draining)

Submissions pass the per-client token-bucket limiter (client id =
``X-Client-Id`` header, else peer address; over budget -> 429 with
``Retry-After``), then the :class:`~repro.service.queue.JobQueue`,
which answers from the artifact store, coalesces identical in-flight
keys, or queues work for the thread-pool workers.  The event loop only
ever parses bytes and probes dictionaries — every simulation runs on a
worker thread — so status polls stay fast while jobs grind, and a held
one (``wait_s``) parks on the job's ``done`` event, answering as it ends.

``python -m repro.harness serve`` wraps :func:`run_server`; tests and
the load benchmark use :func:`start_service` to run the whole service
on a background thread with an ephemeral port.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import urllib.parse
from dataclasses import dataclass
from typing import Callable

from ..fleet import FleetExecutor
from ..obs.emit import EnvelopeWriter
from .contracts import ContractError, JobRequest
from .queue import JobQueue
from .ratelimit import DEFAULT_CAPACITY, DEFAULT_REFILL_PER_S, RateLimiter
from .store import DEFAULT_LRU_ENTRIES, ArtifactStore

#: A service request body larger than this is refused (HTTP 413).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: From the request line on, the header section and the body must arrive
#: within this many seconds, or the request is answered HTTP 408 and the
#: connection closed.
REQUEST_DEADLINE_S = 30.0

#: The stream reader's line limit (asyncio's default): a request line
#: longer than this is refused with HTTP 414, a header line with 431.
MAX_LINE_BYTES = 64 * 1024

#: Caps on one request's header section, blank line included: past
#: either, the request is refused with HTTP 431.
MAX_HEADER_BYTES = 64 * 1024
MAX_HEADER_LINES = 100

#: Idle keep-alive connections are closed after this many seconds.
KEEP_ALIVE_TIMEOUT_S = 75.0

#: The longest ``GET /v1/jobs/<id>?wait_s=`` holds an answer: below
#: KEEP_ALIVE_TIMEOUT_S and the client's socket timeout.
MAX_WAIT_S = 30.0

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented", 503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Everything one service instance needs to boot."""

    host: str = "127.0.0.1"
    port: int = 8337
    workers: int = 2
    #: >1 attaches a :class:`~repro.fleet.FleetExecutor` and runs jobs in
    #: pool processes instead of worker threads (GIL-free simulation).
    processes: int = 1
    store_root: str = ".cgpa-store"
    lru_entries: int = DEFAULT_LRU_ENTRIES
    rate_capacity: float = DEFAULT_CAPACITY
    rate_refill_per_s: float = DEFAULT_REFILL_PER_S
    #: Default wall-clock budget per job (None = unbounded; a request's
    #: own ``deadline_s`` overrides it).
    job_deadline_s: float | None = None
    #: Re-runs allowed after a crashed pool worker before a job fails.
    job_retries: int = 1
    #: Seconds shutdown lets in-flight jobs finish before cancelling.
    drain_timeout: float = 5.0


class _HttpError(Exception):
    """Internal: unwinds request handling into an error response."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message}
        self.retry_after = retry_after


class _TooSlow(Exception):
    """Internal: a connection's idle timer or a request's deadline fired
    while the reader waited."""


class CgpaService:
    """One server instance: store + queue + limiter + HTTP front end."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        run: Callable[[JobRequest], dict] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = ArtifactStore(
            self.config.store_root, lru_entries=self.config.lru_entries
        )
        self.fleet = (
            FleetExecutor(self.config.processes)
            if self.config.processes > 1 else None
        )
        # Every executed job lands in the store's run journal, so one
        # `harness obs query <store>` covers the service's whole history.
        self.envelopes = EnvelopeWriter(self.store)
        self.queue = JobQueue(
            self.store, workers=self.config.workers, run=run,
            fleet=self.fleet, envelopes=self.envelopes,
            deadline_s=self.config.job_deadline_s,
            job_retries=self.config.job_retries,
            drain_timeout=self.config.drain_timeout,
        )
        limiter_kwargs = {} if clock is None else {"clock": clock}
        self.limiter = RateLimiter(
            capacity=self.config.rate_capacity,
            refill_per_s=self.config.rate_refill_per_s,
            **limiter_kwargs,
        )
        self.requests_served = 0
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.queue.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES,
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "service not started"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_timeout: float | None = None) -> None:
        """Graceful drain, then teardown.

        Submissions start answering 503 the moment the queue's
        ``draining`` flag flips; the HTTP front end stays up through the
        drain so clients can keep polling their in-flight jobs, and only
        then do the listener, connections, and pool come down.
        """
        self.queue.draining = True
        await self.queue.close(drain_timeout)
        if self._server is not None:
            self._server.close()
        # Keep-alive connections and held reads outlive the listener:
        # cancel them first, since wait_closed() may wait on them.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.fleet is not None:
            self.fleet.close()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        peer = writer.get_extra_info("peername")
        peer_id = peer[0] if isinstance(peer, tuple) else "local"
        loop = asyncio.get_running_loop()
        try:
            while True:
                # One timer per wait, as for a request's deadline below: a
                # read it interrupts raises _TooSlow.
                idle = loop.call_later(
                    KEEP_ALIVE_TIMEOUT_S, reader.set_exception, _TooSlow()
                )
                try:
                    request_line = await reader.readline()
                except _TooSlow:
                    break  # idle, or the last request's deadline fired as it ended
                except ValueError:  # a line over the reader's limit
                    await self._respond(
                        writer, 414,
                        {"error": f"request line exceeds {MAX_LINE_BYTES} bytes"},
                        close=True,
                    )
                    break
                finally:
                    idle.cancel()
                if not request_line.strip():
                    if not request_line:
                        break  # EOF: client closed the connection
                    continue  # stray CRLF between pipelined requests
                keep_alive = await self._handle_request(
                    request_line, reader, writer, peer_id
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # service shutting down
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            except asyncio.CancelledError:
                # stop() cancelled the task while it was closing: end it
                # normally, since a cancelled connection task is reported
                # by the stream's done-callback as an unhandled error.
                pass
            finally:
                # Tracked until closed, so stop() never leaves it pending.
                if task is not None:
                    self._connections.discard(task)

    async def _handle_request(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer_id: str,
    ) -> bool:
        """Parse, route and answer one request; returns keep-alive."""
        try:
            method, target, version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._respond(
                writer, 400, {"error": "malformed request line"}, close=True
            )
            return False
        # The request's deadline replaces the connection's idle timer.
        late = asyncio.get_running_loop().call_later(
            REQUEST_DEADLINE_S, reader.set_exception, _TooSlow()
        )
        try:
            read = await self._read_request(reader, writer, version)
        except _TooSlow:
            await self._respond(
                writer, 408,
                {"error": f"request not received within {REQUEST_DEADLINE_S} s"},
                close=True,
            )
            return False
        finally:
            late.cancel()
        if read is None:
            return False
        headers, body, keep_alive = read
        self.requests_served += 1
        client_id = headers.get("x-client-id", peer_id)
        extra_headers: dict[str, str] = {}
        try:
            await self._hold(method, target)
            status, payload = self._route(method, target, body, client_id)
        except _HttpError as exc:
            status, payload = exc.status, exc.payload
            if exc.retry_after is not None:
                extra_headers["Retry-After"] = f"{exc.retry_after:.3f}"
        except Exception as exc:  # route bug: answer 500, keep serving
            status, payload = 500, {
                "error": f"internal: {type(exc).__name__}: {exc}"
            }
        await self._respond(
            writer, status, payload, close=not keep_alive,
            extra_headers=extra_headers,
        )
        return keep_alive

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, version: str
    ) -> tuple[dict[str, str], bytes, bool] | None:
        """``(headers, body, keep-alive)``; None once refused or at EOF."""
        try:
            headers = await self._read_headers(reader)
        except ValueError as exc:  # over a header cap
            await self._respond(writer, 431, {"error": str(exc)}, close=True)
            return None
        if headers is None:
            return None
        keep_alive = (
            headers.get("connection", "keep-alive").lower() != "close"
            and version.upper() != "HTTP/1.0"
        )
        if "transfer-encoding" in headers:
            # A body framed some other way than by Content-Length cannot
            # be read, and the bytes after the headers would parse as the
            # next request: refuse it and close.
            await self._respond(
                writer, 501,
                {"error": "Transfer-Encoding is not supported; send a Content-Length body"},
                close=True,
            )
            return None
        body = b""
        length_text = headers.get("content-length", "0")
        # One run of ASCII digits, short enough for ``int()`` (which
        # refuses over 4300 digits) and far longer than any body we take.
        if not (
            length_text.isascii() and length_text.isdigit()
            and len(length_text) <= 20
        ):
            await self._respond(
                writer, 400,
                {"error": f"bad Content-Length {length_text!r}"}, close=True,
            )
            return None
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            await self._respond(
                writer, 413,
                {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}, close=True,
            )
            return None
        if length:
            body = await reader.readexactly(length)
        return headers, body, keep_alive

    async def _read_headers(
        self, reader: asyncio.StreamReader
    ) -> dict[str, str] | None:
        """The header section, None at EOF; ``ValueError`` over a cap."""
        headers: dict[str, str] = {}
        size = 0
        for _ in range(MAX_HEADER_LINES):
            try:
                line = await reader.readline()
            except ValueError:  # a line over the reader's limit
                raise ValueError(
                    f"header line exceeds {MAX_LINE_BYTES} bytes") from None
            if not line:
                return None  # EOF mid-headers
            size += len(line)
            if size > MAX_HEADER_BYTES:
                raise ValueError(
                    f"header section exceeds {MAX_HEADER_BYTES} bytes")
            line = line.strip()
            if not line:
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raise ValueError(f"header section exceeds {MAX_HEADER_LINES} lines")

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        close: bool = False,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _hold(self, method: str, target: str) -> None:
        """``GET /v1/jobs/<id>?wait_s=S``: park on the job's ``done`` event
        for up to ``min(S, MAX_WAIT_S)`` seconds; :meth:`_route` then
        answers the record as for any status read."""
        path, _, query = target.partition("?")
        parts = path.strip("/").split("/")
        if method != "GET" or len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            return
        query = urllib.parse.parse_qs(query, keep_blank_values=True)
        if "wait_s" not in query:
            return
        text = query["wait_s"][-1]
        try:
            wait_s = float(text)
        except ValueError:
            wait_s = math.nan
        if not 0 <= wait_s < math.inf:
            raise _HttpError(400, f"wait_s must be finite and >= 0, not {text!r}")
        record = self._job(parts[2])
        if wait_s and not record.done.is_set():
            await self.queue.wait(record, min(wait_s, MAX_WAIT_S))

    def _route(
        self, method: str, target: str, body: bytes, client_id: str
    ) -> tuple[int, dict]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        parts = path.strip("/").split("/")

        if path == "/v1/healthz":
            self._require(method, "GET")
            draining = self.queue.draining
            health = (
                "draining" if draining
                else "degraded" if self.queue.degraded
                else "ok"
            )
            return 200, {"ok": not draining, "status": health,
                         "draining": draining}
        if path == "/v1/stats":
            self._require(method, "GET")
            return 200, self._stats()
        if path == "/v1/jobs":
            self._require(method, "POST")
            return self._submit(body, client_id)
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            if method == "DELETE":
                return 200, self._cancel(parts[2])
            self._require(method, "GET")
            return 200, self._job(parts[2]).to_dict()
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
            self._require(method, "GET")
            return self._result(parts[2])
        if len(parts) == 3 and parts[:2] == ["v1", "artifacts"]:
            self._require(method, "GET")
            artifact = self.store.get(parts[2])
            if artifact is None:
                raise _HttpError(404, f"no artifact {parts[2]!r}")
            return 200, artifact
        raise _HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    def _submit(self, body: bytes, client_id: str) -> tuple[int, dict]:
        if self.queue.draining:
            raise _HttpError(
                503, "service is draining; not accepting new jobs",
                retry_after=self.config.drain_timeout,
            )
        decision = self.limiter.check(client_id)
        if not decision.allowed:
            raise _HttpError(
                429,
                f"rate limit exceeded for client {client_id!r}",
                retry_after=decision.retry_after,
            )
        try:
            data = json.loads(body or b"null")
        except (ValueError, RecursionError) as exc:
            # ValueError covers a JSONDecodeError and an integer over
            # int()'s digit limit; RecursionError, nesting too deep to decode.
            raise _HttpError(400, f"request body is not JSON: {exc}")
        try:
            request = JobRequest.from_dict(data)
        except ContractError as exc:
            raise _HttpError(400, str(exc))
        record = self.queue.submit(request)
        return 200, record.to_dict()

    def _job(self, job_id: str):
        record = self.queue.get(job_id)
        if record is None:
            raise _HttpError(404, f"no job {job_id!r}")
        return record

    def _cancel(self, job_id: str) -> dict:
        record = self.queue.cancel(job_id)
        if record is None:
            raise _HttpError(404, f"no job {job_id!r}")
        return record.to_dict()

    def _result(self, job_id: str) -> tuple[int, dict]:
        record = self._job(job_id)
        if record.status in ("failed", "timeout"):
            raise _HttpError(500, record.error or "job failed")
        artifact = self.queue.result(record)
        if artifact is None:
            raise _HttpError(
                409, f"job {job_id} is {record.status}; result not ready"
            )
        return 200, artifact

    def _stats(self) -> dict:
        return {
            "service": {
                "requests": self.requests_served,
                "clients": len(self.limiter),
            },
            "store": {**self.store.stats.to_dict(), "entries": len(self.store)},
            "queue": {**self.queue.stats.to_dict(), "depth": self.queue.depth},
            "rate": {"rejected": self.limiter.rejected},
        }


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def run_server(config: ServiceConfig) -> None:
    """Blocking entry point for ``python -m repro.harness serve``.

    SIGINT and SIGTERM both trigger a graceful drain (via explicit loop
    signal handlers, so drain works even when the process was launched
    with SIGINT ignored — e.g. backgrounded from a shell script — or is
    being stopped by a process manager that sends SIGTERM).
    """
    import signal as _signal

    async def main() -> None:
        service = CgpaService(config)
        await service.start()
        pool = (
            f"{config.processes} pool process(es)"
            if config.processes > 1 else f"{config.workers} worker(s)"
        )
        print(
            f"CGPA service on http://{config.host}:{service.port} "
            f"({pool}, store: {config.store_root})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        hooked: list[int] = []
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, shutdown.set)
                hooked.append(sig)
            except (NotImplementedError, OSError, RuntimeError):
                pass  # non-main thread / platforms without signal support
        serve = asyncio.ensure_future(service.serve_forever())
        stop = asyncio.ensure_future(shutdown.wait())
        stopped = False
        try:
            await asyncio.wait({serve, stop}, return_when=asyncio.FIRST_COMPLETED)
            if shutdown.is_set():
                # Drain while serve_forever still holds the listener up,
                # so clients can poll in-flight jobs to completion;
                # stop() closes the listener only after the drain.
                await service.stop()
                stopped = True
        finally:
            serve.cancel()
            stop.cancel()
            await asyncio.gather(serve, stop, return_exceptions=True)
            for sig in hooked:
                loop.remove_signal_handler(sig)
            if not stopped:
                await service.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class ServiceHandle:
    """A service running on a daemon thread (tests / load generators)."""

    def __init__(self, service: CgpaService, loop, thread: threading.Thread):
        self.service = service
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def host(self) -> str:
        return self.service.config.host

    @property
    def port(self) -> int:
        return self.service.port

    def stop(
        self, timeout: float = 10.0, drain_timeout: float | None = None
    ) -> None:
        if self._stopped:
            return
        self._stopped = True

        async def _shutdown() -> None:
            await self.service.stop(drain_timeout)
            asyncio.get_running_loop().stop()

        self._loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(_shutdown())
        )
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_service(
    config: ServiceConfig | None = None,
    run: Callable[[JobRequest], dict] | None = None,
    clock: Callable[[], float] | None = None,
    timeout: float = 10.0,
) -> ServiceHandle:
    """Boot a service on a background thread; returns once it's listening.

    Pass ``port=0`` in the config for an ephemeral port (read it back
    from ``handle.port``).  The handle is a context manager; exiting it
    stops the server and the worker pool.
    """
    config = config or ServiceConfig(port=0)
    service = CgpaService(config, run=run, clock=clock)
    started = threading.Event()
    boot_error: list[BaseException] = []
    loop_box: list[asyncio.AbstractEventLoop] = []

    def main() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop_box.append(loop)

        async def boot() -> None:
            try:
                await service.start()
            except BaseException as exc:
                boot_error.append(exc)
                raise
            finally:
                started.set()

        try:
            loop.run_until_complete(boot())
        except BaseException:
            loop.close()
            return
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=main, name="cgpa-service", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("service failed to start within timeout")
    if boot_error:
        raise RuntimeError(f"service failed to start: {boot_error[0]}")
    return ServiceHandle(service, loop_box[0], thread)
