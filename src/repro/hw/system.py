"""The accelerator system: workers + FIFOs + shared cache + clock loop.

Simulates the dashed box of the paper's Fig. 2.  The parent (wrapper)
function runs as a hardware module too; ``parallel_fork`` brings worker
modules out of reset, ``parallel_join`` waits for their finish signals and
re-arms the FIFO buffers for the next invocation (relevant for kernels
that invoke the accelerator once per outer-loop iteration, like the
1D Gaussian blur rows).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..errors import CycleBudgetExceeded, DeadlockError
from ..faults.conservation import check_conservation
from ..faults.plan import NULL_INJECTOR
from ..faults.watchdog import WATCHDOG
from ..interp.interpreter import _place_globals
from ..interp.memory import Memory
from ..ir.function import Function
from ..ir.instructions import ParallelFork
from ..ir.module import Module
from ..ir.primitives import DEFAULT_FIFO_DEPTH, Channel, ChannelPlan
from ..rtl.schedule import FunctionSchedule, schedule_function
from ..telemetry.events import NULL_SINK, TraceSink
from .cache import CacheStats, DirectMappedCache
from .engine import EventScheduler
from .fifo import FifoBuffer
from .specialize import SpecializedWorker
from .worker import HwWorker, WorkerStats
from ..pipeline.transform import fork_call

#: Valid values for ``AcceleratorSystem(engine=...)``.
ENGINES = ("event", "lockstep", "specialized")

#: The engine every ``engine=`` parameter, CLI flag and service option
#: defaults to; declared here and nowhere else.
DEFAULT_ENGINE = "specialized"


@dataclass
class SimReport:
    """Outcome of one accelerator run."""

    cycles: int
    return_value: int | float | None
    worker_stats: dict[str, WorkerStats]
    cache_stats: CacheStats
    fifo_stats: dict[str, object]
    invocations: int
    #: Final liveout register file (liveout id -> value), identical across
    #: engines; its checksum is the cheap cross-engine equivalence probe.
    liveouts: dict[int, int | float] = field(default_factory=dict)

    @property
    def stall_breakdown(self) -> dict[str, dict[str, int]]:
        """Per-worker cycles by stall category (cycle-conserving).

        For every worker the category counts sum exactly to ``cycles``:
        each simulated cycle of each worker lands in exactly one bucket
        (see :class:`~repro.telemetry.events.CycleCategory`).
        """
        return {
            name: stats.breakdown() for name, stats in self.worker_stats.items()
        }

    def stall_totals(self) -> dict[str, int]:
        """:attr:`stall_breakdown` summed over workers, per category."""
        totals: dict[str, int] = {}
        for counts in self.stall_breakdown.values():
            for category, count in counts.items():
                totals[category] = totals.get(category, 0) + count
        return totals

    def liveouts_checksum(self) -> str:
        """Content hash of (liveouts, return value) — equal across engines
        iff the runs were functionally identical."""
        body = json.dumps(
            {
                "liveouts": {str(k): self.liveouts[k] for k in sorted(self.liveouts)},
                "return_value": self.return_value,
            },
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()

    def to_dict(self) -> dict:
        """Complete JSON-ready form of the run outcome.

        This is the one public serialisation of a simulation — harness
        and service call sites should use it instead of picking fields
        ad hoc.  ``from_dict(to_dict(r))`` rebuilds an equal report.
        """
        return {
            "cycles": self.cycles,
            "return_value": self.return_value,
            "invocations": self.invocations,
            "worker_stats": {
                name: stats.to_dict()
                for name, stats in self.worker_stats.items()
            },
            "cache_stats": self.cache_stats.to_dict(),
            "fifo_stats": {
                name: stats.to_dict()
                for name, stats in self.fifo_stats.items()
            },
            "liveouts": {
                str(k): self.liveouts[k] for k in sorted(self.liveouts)
            },
            "liveouts_checksum": self.liveouts_checksum(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimReport":
        """Rebuild a report from :meth:`to_dict` output.

        Unknown keys are dropped (forward compatibility, same policy as
        :meth:`repro.dse.evaluate.EvalResult.from_dict`); the stored
        ``liveouts_checksum`` is derived state and recomputed on demand.
        """
        from .fifo import FifoStats

        return cls(
            cycles=data["cycles"],
            return_value=data.get("return_value"),
            worker_stats={
                name: WorkerStats.from_dict(stats)
                for name, stats in (data.get("worker_stats") or {}).items()
            },
            cache_stats=CacheStats.from_dict(data.get("cache_stats") or {}),
            fifo_stats={
                name: FifoStats.from_dict(stats)
                for name, stats in (data.get("fifo_stats") or {}).items()
            },
            invocations=data.get("invocations", 0),
            liveouts={
                int(k): v for k, v in (data.get("liveouts") or {}).items()
            },
        )


class AcceleratorSystem:
    """Container wiring workers, FIFO buffers and the shared D-cache."""

    def __init__(
        self,
        module: Module,
        memory: Memory,
        channels: ChannelPlan | None = None,
        cache: DirectMappedCache | None = None,
        global_addresses: dict[str, int] | None = None,
        max_cycles: int = 500_000_000,
        private_caches: bool = False,
        sink: TraceSink | None = None,
        engine: str = DEFAULT_ENGINE,
        injector=None,
        fifo_depth: int = DEFAULT_FIFO_DEPTH,
    ) -> None:
        """``fifo_depth``: entries per queue of every FIFO buffer the system
        instantiates; channels carry none, so one pipeline runs at any.

        ``private_caches`` models the memory-partitioning option of the
        paper's Appendix B.1: each worker gets its own single-ported cache
        slice instead of contending for the shared 8-port cache.  (Safe
        because CGPA's partition keeps aliasing memory instructions in one
        stage; data always comes from the shared functional memory.)

        ``engine`` (default :data:`DEFAULT_ENGINE`) selects worker and
        clock loop: ``"specialized"`` runs workers whose FSMs were
        compiled into generated code (:mod:`repro.hw.specialize`) under the
        event clock, which jumps between worker wake events
        (:mod:`repro.hw.engine`); ``"event"`` runs the interpretive
        workers under that clock; ``"lockstep"`` ticks them every cycle.
        All three produce bit-identical :class:`SimReport`\\ s; lockstep
        is kept as the differential-testing oracle.

        ``injector`` applies one :class:`~repro.faults.plan.FaultPlan`
        through the hardware models' injection hooks (default: the
        zero-overhead null injector).

        Every :meth:`run` ends with the conservation check
        (:func:`~repro.faults.conservation.check_conservation`)."""
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected {ENGINES}")
        self.engine_kind = engine
        self._worker_cls = SpecializedWorker if engine == "specialized" else HwWorker
        self._scheduler: EventScheduler | None = None
        self.module = module
        self.memory = memory
        #: Telemetry receiver; the do-nothing default costs one boolean
        #: check per instrumented event site.
        self.sink: TraceSink = sink if sink is not None else NULL_SINK
        #: Fault-injection hooks, propagated to every cache and FIFO the
        #: system creates (same null-object pattern as the trace sink).
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.cache = cache if cache is not None else DirectMappedCache()
        self.cache.sink = self.sink
        self.cache.injector = self.injector
        self.private_caches = private_caches
        self._private_cache_pool: list[DirectMappedCache] = []
        self.max_cycles = max_cycles
        if global_addresses is not None:
            self.global_addresses = global_addresses
        else:
            self.global_addresses = _place_globals(module, memory)
        self._schedules: dict[int, FunctionSchedule] = {}
        self.fifo_depth = fifo_depth
        self._fifos: dict[int, FifoBuffer] = {}
        for channel in channels or ():
            self.fifo_for(channel)
        self.liveout_regs: dict[int, int | float] = {}
        self._workers: list[HwWorker] = []
        self._loop_groups: dict[int, list[HwWorker]] = {}
        self.invocations = 0

    # -- infrastructure ------------------------------------------------------------

    def schedule_for(self, function: Function) -> FunctionSchedule:
        key = id(function)
        if key not in self._schedules:
            self._schedules[key] = schedule_function(function)
        return self._schedules[key]

    def fifo_for(self, channel: Channel) -> FifoBuffer:
        if id(channel) not in self._fifos:
            fifo = FifoBuffer(channel, sink=self.sink, depth=self.fifo_depth)
            fifo.injector = self.injector
            fifo.engine = self._scheduler
            self._fifos[id(channel)] = fifo
        return self._fifos[id(channel)]

    def cache_for_new_worker(self) -> DirectMappedCache:
        """Cache slice for a newly created worker."""
        if not self.private_caches:
            return self.cache
        # One single-ported slice per worker, each a quarter of the shared
        # geometry (the BRAM budget is split, not multiplied).
        slice_ = DirectMappedCache(
            n_lines=max(self.cache.n_lines // 4, 16),
            block_size=self.cache.block_size,
            ports=1,
            hit_latency=self.cache.hit_latency,
            miss_penalty=self.cache.miss_penalty,
        )
        slice_.sink = self.sink
        slice_.injector = self.injector
        self._private_cache_pool.append(slice_)
        return slice_

    # -- fork / join ------------------------------------------------------------------

    def fork_worker(
        self, inst: ParallelFork, liveins: list[int | float], cycle: int
    ) -> None:
        worker_id, args = fork_call(inst, liveins)
        name = f"{inst.task.name}#w{worker_id}"
        worker = self._worker_cls(
            name,
            inst.task,
            args,
            self,
            worker_id=worker_id,
            start_cycle=cycle + 1,
        )
        worker.loop_id = inst.loop_id
        self._register_worker(worker)
        self._loop_groups.setdefault(inst.loop_id, []).append(worker)

    def _register_worker(self, worker: HwWorker) -> None:
        worker.seq = len(self._workers)
        worker.engine = self._scheduler
        self._workers.append(worker)
        if self._scheduler is not None:
            self._scheduler.add(worker)

    def join_ready(self, loop_id: int) -> bool:
        return all(w.done for w in self._loop_groups.get(loop_id, []))

    def finish_join(self, loop_id: int, cycle: int = 0) -> None:
        """Join completed: retire workers and re-arm FIFOs for reinvocation."""
        self._loop_groups.pop(loop_id, None)
        self.invocations += 1
        for fifo in self._fifos.values():
            fifo.reset(cycle)

    def worker_finished(self, worker: HwWorker) -> None:
        # Lockstep polls finish signals via join_ready; the event engine
        # turns them into join wake events.
        if self._scheduler is not None:
            self._scheduler.worker_done(worker)

    # -- clock loop ----------------------------------------------------------------------

    def _reset_run_state(self) -> None:
        """Return the system to power-on state before a (re)run.

        Without this a second ``run()`` on the same system double-counts:
        cache stats, FIFO stats, liveout registers and the invocation
        counter all carried over from the previous run.
        """
        self.cache.reset()
        self._private_cache_pool.clear()
        for fifo in self._fifos.values():
            fifo.reset_run()
        self.liveout_regs.clear()
        self.invocations = 0
        self._workers = []
        self._loop_groups.clear()
        if self.injector.enabled:
            self.injector.reset()
            self.injector.attach(self)

    def run(self, entry: str | Function, args: list[int | float]) -> SimReport:
        if isinstance(entry, str):
            entry = self.module.get_function(entry)
        self._reset_run_state()
        if self.engine_kind != "lockstep":
            self._scheduler = EventScheduler(self)
            for fifo in self._fifos.values():
                fifo.engine = self._scheduler
        main = self._worker_cls(f"{entry.name}#top", entry, args, self)
        self._register_worker(main)
        if self.sink.enabled:
            self.sink.begin_run([main.name])

        try:
            if self._scheduler is not None:
                cycles = self._scheduler.run(main)
            else:
                cycles = self._run_lockstep(main)
        except (DeadlockError, CycleBudgetExceeded) as stuck:
            # A stopped run's counters must add up too; when they do not,
            # the broken law is the failure, chained from the watchdog's.
            check_conservation(self, stuck.cycle, cause=stuck)
            raise
        finally:
            self._scheduler = None
            for fifo in self._fifos.values():
                fifo.engine = None

        # While main is still in the worker list: the token-conservation
        # sums include its FIFO traffic.
        check_conservation(self, cycles)
        self._workers.remove(main)
        if self.sink.enabled:
            self.sink.end_run(cycles)
        worker_stats = {main.name: main.stats}
        for worker in self._workers:
            worker_stats[worker.name] = worker.stats
        fifo_stats = {f.name: f.stats for f in self._fifos.values()}
        report = SimReport(
            cycles=cycles,
            return_value=main.return_value,
            worker_stats=worker_stats,
            cache_stats=self._aggregate_cache_stats(),
            fifo_stats=fifo_stats,
            invocations=self.invocations,
            liveouts=dict(self.liveout_regs),
        )
        self._workers = []
        return report

    def _run_lockstep(self, main: HwWorker) -> int:
        """Reference engine: tick every worker on every cycle.

        Kept as the differential-testing oracle for the event-driven
        engine (``tests/test_engine_equivalence.py``); select it with
        ``AcceleratorSystem(..., engine="lockstep")``.
        """
        cycle = 0
        while not main.done:
            for worker in list(self._workers):
                worker.tick(cycle)
            if not main.done and self._deadlocked(cycle):
                # Exact detection, at the same cycle the event engine
                # reports "no runnable worker and no pending event".
                raise WATCHDOG.deadlock(self, cycle)
            cycle += 1
            if cycle > self.max_cycles:
                raise WATCHDOG.budget_exceeded(self, cycle)
        return cycle

    def _deadlocked(self, cycle: int) -> bool:
        """True when every live worker is blocked on another worker's
        action (the lockstep mirror of the event engine's "every worker
        parked at NEVER")."""
        for worker in self._workers:
            if worker.done:
                continue
            if not worker.event_blocked(cycle):
                return False
        return True

    def _aggregate_cache_stats(self) -> CacheStats:
        """Report-level cache summary covering every cache the run used.

        With ``private_caches`` the shared cache sits idle and all traffic
        goes through the per-worker slices; reading only ``cache.stats``
        silently dropped every one of those accesses.
        """
        if not self._private_cache_pool:
            return self.cache.stats
        total = CacheStats()
        total.absorb(self.cache.stats)
        for slice_ in self._private_cache_pool:
            total.absorb(slice_.stats)
        return total

    @property
    def fifos(self) -> dict[int, FifoBuffer]:
        return self._fifos
