"""Async job queue: submissions in, artifacts out, nothing done twice.

The queue owns the service's execution pipeline:

* **store short-circuit** — a submission whose artifact already exists
  completes instantly (``cached=True``), which is what makes a repeated
  workload a pure cache exercise;
* **coalescing** — identical in-flight keys collapse onto one
  :class:`JobRecord`; the second client polls the same job id and the
  work runs exactly once;
* **worker pool** — N asyncio worker tasks drain a FIFO queue, running
  the (CPU-bound, blocking) executor on a thread pool — or, when a
  :class:`~repro.fleet.FleetExecutor` is attached, on its process pool
  (sidestepping the GIL for simulation-bound workloads) — so the HTTP
  event loop stays responsive while simulations grind;
* **fault tolerance** — each job may carry a wall-clock ``deadline_s``
  (per request, or a queue-wide default) after which it lands in the
  ``timeout`` terminal state; a crashed pool worker
  (``BrokenProcessPool``) respawns the fleet pool and re-runs the job up
  to ``job_retries`` times before failing it; :meth:`cancel` moves a
  queued or running job to the ``cancelled`` terminal state; and
  :meth:`close` *drains* by default — in-flight jobs get
  ``drain_timeout`` seconds to land their artifacts in the store before
  anything is hard-cancelled.

All bookkeeping (records, in-flight map, stats) is touched only from
the event loop thread, so there are no locks here; the executor runs on
pool threads/processes but communicates only through its return value.
A finished job's store write and journal line (linear in the artifact's
size) run on the loop's default executor; the record turns terminal
after both, so whoever sees ``done`` finds the artifact and envelope.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
from concurrent.futures import Executor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from ..errors import CgpaError
from ..fleet import FleetExecutor
from ..obs.emit import job_envelope
from . import jobs
from .contracts import JobRequest
from .store import ArtifactStore

#: JobRecord.status values, in lifecycle order.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled", "timeout")

#: Statuses a record can never leave (its ``done`` event is set).
TERMINAL_STATUSES = ("done", "failed", "cancelled", "timeout")

#: Job records a queue keeps; past this the oldest finished ones go.
MAX_RECORDS = 10_000


@dataclass
class QueueStats:
    """Submission-side counters (monotonic, per queue instance)."""

    submitted: int = 0
    cached: int = 0  # answered straight from the artifact store
    coalesced: int = 0  # attached to an identical in-flight job
    executed: int = 0
    failed: int = 0
    cancelled: int = 0
    timeouts: int = 0  # jobs that blew their wall-clock deadline
    crashes: int = 0  # BrokenProcessPool observed under a job
    crash_retries: int = 0  # re-runs scheduled after a crash

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "crash_retries": self.crash_retries,
        }


@dataclass
class JobRecord:
    """One tracked unit of work (shared by every coalesced submitter)."""

    job_id: str
    request: JobRequest
    key: str
    status: str = "queued"
    error: str | None = None
    #: True when the submission was answered from the store without
    #: queueing any work.
    cached: bool = False
    #: How many submissions this record absorbed (1 = no coalescing).
    submissions: int = 1
    #: Wall-clock budget for execution (None = unbounded).
    deadline_s: float | None = None
    #: Execution attempts so far (crash retries re-run the same record).
    attempts: int = 0
    done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)
    #: Set by :meth:`JobQueue.cancel` while the job is running.
    cancel: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.request.kind,
            "kernel": self.request.kernel,
            "key": self.key,
            "status": self.status,
            "cached": self.cached,
            "submissions": self.submissions,
            "attempts": self.attempts,
            "error": self.error,
        }


class JobQueue:
    """Bounded worker pool over an asyncio FIFO with key coalescing."""

    def __init__(
        self,
        store: ArtifactStore,
        workers: int = 2,
        run: Callable[[JobRequest], dict] | None = None,
        fleet: FleetExecutor | None = None,
        envelopes=None,
        deadline_s: float | None = None,
        job_retries: int = 1,
        drain_timeout: float = 5.0,
    ) -> None:
        """``envelopes`` is an optional
        :class:`~repro.obs.emit.EnvelopeWriter`: when set, every job that
        executes (cache short-circuits and coalesced attachments run no
        work, so they journal nothing) journals the
        :func:`~repro.obs.emit.job_envelope` a CLI run of the same request
        would, with ``job_id``/``attempts``/``submissions`` in ``extra``;
        a ``failed``/``timeout``/``cancelled`` job journals that status,
        an empty payload and ``extra["error"]``.  Emission is one journal
        line, written on the loop's default executor after the artifact
        is stored and before the record turns terminal."""
        self.store = store
        self.envelopes = envelopes
        self.workers = max(1, workers)
        #: A non-serial fleet moves the default executor onto its process
        #: pool.  A custom ``run`` pins execution to the thread pool (it
        #: may close over unpicklable state — tests do).
        self.fleet = fleet
        self._custom_run = run
        self._run = run if run is not None else (
            lambda request: jobs.execute(request, store=store)
        )
        #: Default wall-clock budget for jobs that don't carry their own.
        self.deadline_s = deadline_s
        #: Crash (BrokenProcessPool) re-runs allowed per job.
        self.job_retries = max(0, job_retries)
        #: Seconds :meth:`close` lets in-flight jobs finish before
        #: cancelling them.
        self.drain_timeout = drain_timeout
        #: True once :meth:`close` begins: the HTTP layer answers 503.
        self.draining = False
        self._degraded = False
        self.stats = QueueStats()
        self._records: dict[str, JobRecord] = {}
        self._inflight: dict[str, JobRecord] = {}  # key -> queued/running
        self._ids = itertools.count(1)
        self._queue: asyncio.Queue[JobRecord] = asyncio.Queue()
        self._tasks: list[asyncio.Task] = []
        self._pool: Executor | None = None
        self._owns_pool = True

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if (
            self._custom_run is None
            and self.fleet is not None
            and not self.fleet.serial
        ):
            # Jobs run in fleet pool processes; each process keeps its
            # own artifact store, evaluator memos and interned workload
            # images across the jobs that land on it.
            self._pool = self.fleet.futures_pool
            self._owns_pool = False
            self._run = functools.partial(
                jobs.execute_in_process, str(self.store.root)
            )
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="cgpa-job"
            )
            self._owns_pool = True
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"job-worker-{i}")
            for i in range(self.workers)
        ]

    async def close(self, drain_timeout: float | None = None) -> None:
        """Drain, then stop: in-flight jobs get ``drain_timeout`` seconds
        (default: the queue's ``drain_timeout``) to land their artifacts
        in the store before the worker tasks are cancelled."""
        timeout = self.drain_timeout if drain_timeout is None else drain_timeout
        self.draining = True
        if self._tasks and self._inflight and timeout and timeout > 0:
            try:
                await asyncio.wait_for(self._queue.join(), timeout)
            except asyncio.TimeoutError:
                pass  # drain budget spent; hard-cancel what's left
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        if self._pool is not None:
            # The fleet owns its pool; only shut down one we created.
            if self._owns_pool:
                self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    @property
    def depth(self) -> int:
        """Jobs waiting or running right now."""
        return len(self._inflight)

    @property
    def degraded(self) -> bool:
        """True when the last execution crashed a worker, or a worker
        task has died: the service still answers but recent history says
        jobs are at risk (surfaced via ``/v1/healthz``)."""
        return self._degraded or any(task.done() for task in self._tasks)

    # -- submission --------------------------------------------------------

    def submit(self, request: JobRequest) -> JobRecord:
        """Register ``request``; returns its (possibly shared) record.

        Resolution order: completed artifact in the store → instant
        ``done`` record; identical key already queued/running → the
        existing record (coalesced); otherwise a fresh record enters the
        queue.
        """
        self.stats.submitted += 1
        key = request.key
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.stats.coalesced += 1
            inflight.submissions += 1
            return inflight
        if self.store.get(key) is not None:
            self.stats.cached += 1
            record = self._new_record(request, key)
            record.status = "done"
            record.cached = True
            record.done.set()
            return record
        record = self._new_record(request, key)
        record.deadline_s = (
            request.deadline_s if request.deadline_s is not None
            else self.deadline_s
        )
        self._inflight[key] = record
        self._queue.put_nowait(record)
        return record

    def get(self, job_id: str) -> JobRecord | None:
        return self._records.get(job_id)

    def cancel(self, job_id: str) -> JobRecord | None:
        """Cancel a job; returns its record (None if the id is unknown).

        A queued job lands in ``cancelled`` immediately; a running job is
        flagged and its worker abandons it at the next await point (the
        blocking executor call itself cannot be interrupted, but its
        result is discarded).  Cancelling a terminal record is an
        idempotent no-op.
        """
        record = self._records.get(job_id)
        if record is None:
            return None
        if record.done.is_set():
            return record
        if record.status == "queued":
            record.status = "cancelled"
            record.error = "cancelled by client"
            self.stats.cancelled += 1
            self._inflight.pop(record.key, None)
            record.done.set()
        else:
            record.cancel.set()
        return record

    def result(self, record: JobRecord) -> dict | None:
        """The finished artifact (None unless ``status == "done"``)."""
        if record.status != "done":
            return None
        return self.store.get(record.key)

    async def wait(self, record: JobRecord, timeout: float | None = None) -> bool:
        """Block until the record finishes; False on timeout."""
        try:
            await asyncio.wait_for(record.done.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    # -- internals ---------------------------------------------------------

    def _new_record(self, request: JobRequest, key: str) -> JobRecord:
        record = JobRecord(
            job_id=f"job-{next(self._ids):08d}", request=request, key=key
        )
        self._records[record.job_id] = record
        # Cap the registry: forget the oldest *finished* records first so
        # a long-lived server doesn't grow without bound.
        if len(self._records) > MAX_RECORDS:
            for job_id, old in list(self._records.items()):
                if old.done.is_set() and len(self._records) > MAX_RECORDS:
                    del self._records[job_id]
        return record

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            record = await self._queue.get()
            try:
                if record.done.is_set():
                    continue  # cancelled while still queued
                record.status = "running"
                status, error, artifact = await self._execute(loop, record)
                if self.envelopes is not None:
                    extra = {"job_id": record.job_id, "attempts": record.attempts,
                             "submissions": record.submissions}
                    await loop.run_in_executor(
                        None, self._journal, record.request, artifact,
                        status, error, extra,
                    )
                # Artifact stored, journal line written: now the record
                # may say so, and done.set() below wakes its waiters.
                record.status, record.error = status, error
            except asyncio.CancelledError:
                record.status = "failed"
                record.error = "service shutting down"
                raise
            finally:
                if not record.done.is_set():
                    record.done.set()
                self._inflight.pop(record.key, None)
                self._queue.task_done()

    def _journal(self, request, artifact, status, error, extra) -> None:
        """One run envelope per job that executed, whatever its end.
        Runs off the loop, so it reads its arguments and no record."""
        envelope = job_envelope(request, artifact or {}, extra)
        if status != "done":
            envelope.status = status
            envelope.extra["error"] = error.splitlines()[0]
        self.envelopes.write(envelope)

    async def _execute(self, loop, record: JobRecord) -> tuple:
        """Run one record to its end (with crash retries); returns the
        terminal ``(status, error, artifact)`` for the worker to journal
        and then apply.  A ``done`` job's artifact is already stored."""
        while True:
            record.attempts += 1
            exec_future = loop.run_in_executor(
                self._pool, self._run, record.request
            )
            cancel_task = asyncio.ensure_future(record.cancel.wait())
            try:
                done, _ = await asyncio.wait(
                    {exec_future, cancel_task},
                    timeout=record.deadline_s,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                cancel_task.cancel()
            if exec_future not in done:
                # Cancelled or past deadline.  The blocking call cannot
                # be interrupted mid-flight; discard its (eventual)
                # result and silence its exception, and move the record
                # to its terminal state now.
                exec_future.cancel()
                exec_future.add_done_callback(
                    lambda f: f.cancelled() or f.exception()
                )
                if record.cancel.is_set():
                    self.stats.cancelled += 1
                    return "cancelled", "cancelled by client", None
                self.stats.timeouts += 1
                return "timeout", f"exceeded {record.deadline_s:g}s deadline", None
            try:
                artifact = exec_future.result()
            except BrokenProcessPool as exc:
                self.stats.crashes += 1
                self._degraded = True
                if self.fleet is not None and not self._owns_pool:
                    # Fleet-owned pool: replace it so retries (and every
                    # other queued job) land on live workers.
                    self._pool = self.fleet.respawn()
                if record.attempts <= self.job_retries:
                    self.stats.crash_retries += 1
                    continue
                detail = str(exc).splitlines()[0] if str(exc) else (
                    type(exc).__name__
                )
                self.stats.failed += 1
                return "failed", (f"worker process crashed on all "
                                  f"{record.attempts} attempt(s): {detail}"), None
            except CgpaError as exc:
                self.stats.failed += 1
                return "failed", str(exc).splitlines()[0], None
            except Exception as exc:  # executor bug: fail the job only
                self.stats.failed += 1
                return "failed", f"internal: {type(exc).__name__}: {exc}", None
            # The default executor, never the job pool: that may be busy
            # simulating, and a fleet's pool is another process.
            await loop.run_in_executor(None, self.store.put, record.key, artifact)
            self.stats.executed += 1
            self._degraded = False
            return "done", None, artifact
