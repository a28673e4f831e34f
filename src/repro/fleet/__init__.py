"""One shared, *supervised* process-pool executor for every parallel fan-out.

Before this package each parallel consumer owned its own machinery:
:mod:`repro.dse.explore` created a fresh ``multiprocessing.Pool`` per
evaluation batch (paying process startup for every strategy round),
fault sweeps ran strictly serially, and the service job queue only knew
about threads.  :class:`FleetExecutor` is the one reusable executor they
all share:

* **ordered map** — ``map(fn, tasks)`` always returns results in task
  order, so every consumer's determinism contract (byte-identical
  reports at any pool size) holds by construction;
* **serial == pool** — at ``processes=1`` the *same* task function runs
  inline in the parent, so the serial path and the pool path execute
  identical code and produce identical bytes;
* **reusable** — the underlying ``ProcessPoolExecutor`` is created
  lazily and kept across ``map`` calls, so per-process caches (compiled
  pipelines, interned workload images) amortize across batches, sweep
  rounds and queue jobs;
* **supervised** — a pooled ``map`` watches its tasks: a worker crash
  (``BrokenProcessPool``) or a task that blows its wall-clock deadline
  tears the pool down, respawns it, and re-runs every unfinished task
  under a bounded :class:`RetryPolicy` (exponential backoff with
  deterministic jitter).  Only infrastructure failures are retried —
  ordinary task exceptions propagate unchanged on the first attempt, so
  results stay byte-identical to an unsupervised run.  Exhausted retries
  surface as typed :class:`TaskCrashed` / :class:`TaskTimeout` errors;
* **incremental results** — ``map(..., on_result=fn)`` reports each
  task's result (with its proposal index) the moment it completes: the
  hook checkpoint/resumable sweeps persist partial progress through;
* **futures bridge** — :attr:`futures_pool` exposes the pool as a
  ``concurrent.futures.Executor`` for ``loop.run_in_executor`` (the
  service job queue's integration point), and :meth:`respawn` replaces
  a broken pool with a fresh one.

Every supervision action is recorded as a :class:`FleetEvent` on
:attr:`FleetExecutor.events` and — when an
:class:`~repro.obs.emit.EnvelopeWriter` is attached — journaled as a
``fleet`` :class:`~repro.obs.RunEnvelope`, so ``obs query --kind fleet``
reports crash/retry/timeout/respawn history alongside the runs.

Task functions must be module-level (picklable) and take their heavy
state from the per-process memos of the build and run path, keyed by
content — :func:`repro.harness.build.interned_pipeline`, and the image
and checksum memos :func:`repro.harness.runner.run_hardware` runs
through by default — so each pool process compiles a kernel, builds its
workload and checks a result image once, no matter how many tasks land
on it.  This package is the pool and nothing else; the three
``interned_*`` names are importable from here only because the layers
benchmark and the tests import them from here.

:mod:`repro.fleet.chaos` supplies the deterministic failure-injection
hooks (worker kills, task delays, artifact corruption) the chaos tests
and the ``chaos-smoke`` CI job drive through ``CGPA_CHAOS``.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable

from ..errors import CgpaError
# Re-imported for benchmarks/layers and the tests, which import them from here.
from ..harness.build import interned_pipeline
from ..harness.runner import interned_check, interned_workload


class TaskCrashed(CgpaError):
    """A pool worker died under a task and the retry budget is spent.

    Raised in the *parent*: the pool broke (``BrokenProcessPool`` — a
    worker was killed, segfaulted, or ``os._exit``\\ ed) more times than
    :attr:`RetryPolicy.max_retries` allows for ``task_index``.
    """

    def __init__(self, message: str, task_index: int | None = None,
                 attempts: int = 0):
        super().__init__(message)
        self.task_index = task_index
        self.attempts = attempts


class TaskTimeout(CgpaError):
    """A task exceeded its wall-clock deadline on every allowed attempt."""

    def __init__(self, message: str, task_index: int | None = None,
                 attempts: int = 0, deadline_s: float | None = None):
        super().__init__(message)
        self.task_index = task_index
        self.attempts = attempts
        self.deadline_s = deadline_s


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Retries apply only to *infrastructure* failures (worker crashes,
    deadline timeouts) — a task exception is a deterministic result and
    retrying it would just replay it.  The jitter fraction is a pure
    function of ``(seed, task_index, attempt)``, so a re-run of the same
    sweep backs off identically: supervision never introduces
    nondeterminism into anything observable.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def delay_s(self, task_index: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of a task."""
        exponent = max(0, attempt - 1)
        base = min(
            self.backoff_base_s * self.backoff_factor ** exponent,
            self.backoff_max_s,
        )
        digest = hashlib.sha256(
            f"{self.seed}:{task_index}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * fraction)


@dataclass
class FleetEvent:
    """One supervision event (also journaled as a ``fleet`` envelope)."""

    kind: str  # task-crashed | task-timeout | retry | pool-respawn | resume
    task_index: int | None = None
    attempt: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "task_index": self.task_index,
            "attempt": self.attempt,
            "detail": self.detail,
        }


def _supervised_call(fn: Callable, index: int, task):
    """Worker-side wrapper: fire chaos hooks for ``index``, then run.

    A strict no-op unless ``CGPA_CHAOS`` names a chaos plan (see
    :mod:`repro.fleet.chaos`), so the supervised pool path runs exactly
    the task function the serial path runs.
    """
    from . import chaos

    chaos.fire_task_hooks(index)
    return fn(task)


class FleetExecutor:
    """A reusable, order-preserving, supervised process-pool executor.

    ``processes=1`` (the default) never spawns anything: tasks run
    inline, in submission order, through the same task functions the
    pool would use.  ``processes>1`` lazily creates one
    ``ProcessPoolExecutor``, supervises every ``map`` against crashes
    and deadlines, and reuses the pool for every subsequent ``map``
    until :meth:`close`.

    ``envelopes`` is an optional :class:`~repro.obs.emit.EnvelopeWriter`:
    when set, every supervision event is journaled as a ``fleet``
    envelope (written in the parent, so determinism is untouched);
    ``context`` rides along in each event envelope's ``extra`` (e.g.
    ``{"subsystem": "dse", "kernel": "ks"}``).
    """

    def __init__(
        self,
        processes: int = 1,
        retry: RetryPolicy | None = None,
        deadline_s: float | None = None,
        envelopes=None,
        context: dict | None = None,
    ) -> None:
        self.processes = max(1, int(processes))
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline_s = deadline_s
        self.envelopes = envelopes
        self.context = dict(context or {})
        self.events: list[FleetEvent] = []
        self.respawns = 0
        self._pool: ProcessPoolExecutor | None = None

    @property
    def serial(self) -> bool:
        return self.processes == 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.processes)
        return self._pool

    @property
    def futures_pool(self) -> Executor:
        """The underlying ``concurrent.futures`` executor (created on
        first use), for APIs that take an Executor — e.g.
        ``loop.run_in_executor`` in the service job queue."""
        return self._ensure_pool()

    def record_event(
        self,
        kind: str,
        task_index: int | None = None,
        attempt: int = 0,
        detail: str = "",
    ) -> FleetEvent:
        """Append one supervision event (and journal it, when wired)."""
        event = FleetEvent(
            kind=kind, task_index=task_index, attempt=attempt, detail=detail
        )
        self.events.append(event)
        if self.envelopes is not None:
            from ..obs.emit import fleet_envelope

            self.envelopes.write(
                fleet_envelope(event.to_dict(), extra=self.context)
            )
        return event

    def map(
        self,
        fn: Callable,
        tasks: Iterable,
        deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
        on_result: Callable[[int, object], None] | None = None,
    ) -> list:
        """Apply ``fn`` to every task; results in task order.

        A single task (or a serial executor) runs inline — identical
        code path, identical bytes, no process round-trip.  Pooled runs
        are supervised: ``deadline_s`` bounds each task's wall clock,
        ``retry`` (default :attr:`retry`) bounds crash/timeout recovery,
        and ``on_result(index, result)`` fires in the parent as each
        task completes (in completion order; the returned list is always
        proposal-ordered).
        """
        tasks = list(tasks)
        deadline_s = self.deadline_s if deadline_s is None else deadline_s
        if self.serial or (len(tasks) <= 1 and deadline_s is None):
            results = []
            for index, task in enumerate(tasks):
                result = fn(task)
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results
        return self._supervised_map(
            fn, tasks, deadline_s, retry if retry is not None else self.retry,
            on_result,
        )

    # -- supervision -------------------------------------------------------

    def _supervised_map(
        self,
        fn: Callable,
        tasks: list,
        deadline_s: float | None,
        retry: RetryPolicy,
        on_result: Callable[[int, object], None] | None,
    ) -> list:
        unset = object()
        slots: list = [unset] * len(tasks)
        attempts = [0] * len(tasks)

        while True:
            unfinished = [i for i, slot in enumerate(slots) if slot is unset]
            if not unfinished:
                break
            pool = self._ensure_pool()
            pending: dict[Future, int] = {}
            deadline_at: dict[int, float] = {}
            for index in unfinished:
                future = pool.submit(_supervised_call, fn, index, tasks[index])
                pending[future] = index
                if deadline_s is not None:
                    deadline_at[index] = time.monotonic() + deadline_s

            broken: str | None = None
            timed_out: list[int] = []
            while pending and broken is None and not timed_out:
                timeout = None
                if deadline_s is not None:
                    timeout = max(
                        0.0,
                        min(deadline_at[i] for i in pending.values())
                        - time.monotonic(),
                    )
                done, _ = futures_wait(
                    set(pending), timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    now = time.monotonic()
                    timed_out = sorted(
                        i for i in pending.values() if deadline_at[i] <= now
                    )
                    continue
                for future in done:
                    index = pending.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        # Every other in-flight future is broken too;
                        # abandon them all and respawn below.
                        broken = str(exc) or type(exc).__name__
                        break
                    slots[index] = result
                    if on_result is not None:
                        on_result(index, result)

            if broken is None and not timed_out:
                continue  # round drained cleanly

            # Infrastructure failure: charge an attempt to the affected
            # tasks, enforce the retry budget, then tear the pool down
            # (a wedged or dead worker is unrecoverable in place) and
            # respawn for the next round.
            if timed_out:
                affected = timed_out
                for index in affected:
                    attempts[index] += 1
                    self.record_event(
                        "task-timeout", task_index=index,
                        attempt=attempts[index],
                        detail=f"exceeded {deadline_s:g}s deadline",
                    )
                    if attempts[index] > retry.max_retries:
                        self._terminate_pool()
                        raise TaskTimeout(
                            f"task {index} exceeded its {deadline_s:g}s "
                            f"deadline on all {attempts[index]} attempt(s)",
                            task_index=index, attempts=attempts[index],
                            deadline_s=deadline_s,
                        )
            else:
                # The pool cannot say which task killed the worker, so
                # the round charges every unfinished task one attempt; a
                # persistent crasher still exhausts its budget within
                # max_retries+1 rounds.
                affected = [i for i, slot in enumerate(slots) if slot is unset]
                for index in affected:
                    attempts[index] += 1
                self.record_event(
                    "task-crashed",
                    task_index=affected[0] if affected else None,
                    attempt=max(attempts[i] for i in affected),
                    detail=f"pool broke under task(s) {affected}: {broken}",
                )
                for index in affected:
                    if attempts[index] > retry.max_retries:
                        self._terminate_pool()
                        raise TaskCrashed(
                            f"pool worker crashed under task {index} on all "
                            f"{attempts[index]} attempt(s): {broken}",
                            task_index=index, attempts=attempts[index],
                        )

            self._terminate_pool()
            self.respawns += 1
            self.record_event(
                "pool-respawn", attempt=self.respawns,
                detail=f"respawning {self.processes}-process pool",
            )
            retried = [i for i, slot in enumerate(slots) if slot is unset]
            if retried:
                self.record_event(
                    "retry",
                    task_index=retried[0],
                    attempt=max(attempts[i] for i in affected),
                    detail=f"re-running {len(retried)} task(s): {retried}",
                )
                time.sleep(max(
                    retry.delay_s(i, attempts[i]) for i in affected
                ))

        return slots

    def respawn(self) -> Executor:
        """Replace the pool with a fresh one; returns the new executor.

        The service job queue calls this after a ``BrokenProcessPool``
        so retried jobs land on live workers.
        """
        self._terminate_pool()
        self.respawns += 1
        self.record_event(
            "pool-respawn", attempt=self.respawns,
            detail=f"respawning {self.processes}-process pool",
        )
        return self._ensure_pool()

    def _terminate_pool(self) -> None:
        """Hard-stop the pool: kill workers, drop the executor.

        Used when a worker is wedged past its deadline or the pool is
        already broken — ``shutdown(wait=True)`` alone would block on a
        task that will never finish.
        """
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # already dead
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # a broken pool may refuse a clean shutdown
            pass

    def close(self) -> None:
        """Shut the pool down (idempotent; the executor stays usable —
        the next ``map`` recreates the pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
