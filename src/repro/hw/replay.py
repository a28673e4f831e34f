"""Record once, time many: exact trace-driven timing replay.

A CGPA accelerator is FSM workers that meet only at blocking FIFOs,
fork/join and a memory whose cross-worker dependences the partitioner
routed through those FIFOs.  Such a network is latency-insensitive: FIFO
depth, cache geometry, ports and miss latency move *cycles*, never
*values*, so every worker performs the same sequence of shared-state
operations, the same number of private compute cycles apart, under any
timing.  This module records that sequence from one full simulation and
replays it under other timing knobs without computing a value:

* :meth:`Recording.recorder` builds the full specialized simulator with
  taps on the existing choke points (``SpecializedWorker._load/_store``,
  ``HwWorker._push/_pop/_join``, ``fork_worker``/``worker_finished``).
  Each worker logs its stall-free event stream ``(Δ, kind, a, b)``: the
  COMPUTE cycles retired since its previous event, then a memory access
  (address, is-write), a push/broadcast/pop (channel id, queue), a fork
  (the child's trace), a join (loop id) or its finish.
* :meth:`Recording.replayer` builds a system of value-free workers that
  walk those streams under the *same* ``EventScheduler``, ``FifoBuffer``
  and ``DirectMappedCache`` objects and the inherited blocking-op
  protocol and retire rule, so arbitration order, the same-cycle wake
  rule and every counter are the code the full engine runs.

Exactness is a gate.  A recording is :attr:`~Recording.usable` only if
the recorded run proved its own timing-independence: the top worker
alone forks, one loop group at a time, every group is joined, and within
each fork generation no key — a memory word, the allocator, a liveout
register, one end of a FIFO queue — that one live worker wrote is
touched by another.  The replayer refuses a sink or an injector
and any engine but the specialized one; a replay that does not finish
is for its caller to re-run in full (``repro.dse.evaluate``).
"""

from __future__ import annotations

from collections import Counter

from ..errors import SimulationError
from ..interp.interpreter import _Text
from ..telemetry.events import CycleCategory
from .specialize import SpecializedWorker
from .system import AcceleratorSystem, SimReport
from .worker import STALLED, HwWorker, retire_lines

#: Event kinds: the shared-state operations of one worker.
MEM, PUSH, BROADCAST, POP, FORK, JOIN, DONE = range(7)

#: Footprint key of the bump allocator (memory words are ints >= 0).
_ALLOCATOR = -1

_COMPUTE = CycleCategory.COMPUTE


class WorkerTrace:
    """One worker instance's event stream and its final op counts.

    ``reads``/``writes`` are the footprint the gate checks (word indices,
    ``_ALLOCATOR``, ``("liveout", id)``, ``(channel id, queue, PUSH|POP)``);
    they are dropped when the worker's fork generation closes.
    """

    __slots__ = ("name", "worker_id", "loop_id", "events", "ops", "reads", "writes")

    def __init__(self, name: str, worker_id: int) -> None:
        self.name = name
        self.worker_id = worker_id
        self.loop_id: int | None = None
        self.events: list[tuple] = []
        self.ops: dict[str, int] = {}
        self.reads: set = set()
        self.writes: set = set()


def _disjoint(generation: list[WorkerTrace]) -> bool:
    """No key written by one trace of ``generation`` is touched by another."""
    owner: dict = {}
    for trace in generation:
        for key in trace.writes:
            if owner.setdefault(key, trace) is not trace:
                return False
    return all(
        owner.get(key, trace) is trace
        for trace in generation for key in trace.reads
    )


class Recording:
    """What one full run fixes for every timing of the same structure."""

    def __init__(self) -> None:
        #: True once a recorded run finished and passed the gate.
        self.usable = False
        self.top: WorkerTrace | None = None
        #: channel id -> queue count: the plan a replay must be given.
        self.channels: dict[int, int] = {}
        self.return_value: int | float | None = None
        self.liveouts: dict[int, int | float] = {}

    def recorder(self, *args, **kwargs) -> AcceleratorSystem:
        """An :class:`AcceleratorSystem` (same arguments) that simulates
        in full and fills this recording."""
        return _RecordingSystem(self, *args, **kwargs)

    def replayer(self, *args, **kwargs) -> AcceleratorSystem:
        """An :class:`AcceleratorSystem` (same arguments; ``memory`` and
        ``global_addresses`` are not read) that re-times this recording."""
        return _ReplaySystem(self, *args, **kwargs)


def _require_plain_specialized(system: AcceleratorSystem) -> None:
    if (
        system.engine_kind != "specialized"
        or system.sink.enabled
        or system.injector.enabled
    ):
        raise SimulationError(
            "trace replay models the specialized engine with no sink "
            "or injector attached"
        )


# --------------------------------------------------------------------------
# Record
# --------------------------------------------------------------------------


class _RecordingWorker(SpecializedWorker):
    _inline = False  # every load and store comes through the taps below

    def __init__(self, name, *args, worker_id=0, **kwargs) -> None:
        super().__init__(name, *args, worker_id=worker_id, **kwargs)
        self.trace = WorkerTrace(name, worker_id)
        self._logged = 0  # stats.active_cycles at the latest event

    def log(self, kind: int, a=None, b=None) -> None:
        active = self.stats.active_cycles
        self.trace.events.append((active - self._logged, kind, a, b))
        self._logged = active

    def _load(self, type_, addr: int):
        return self._tapped(addr, super()._load, type_, addr)

    def _store(self, type_, addr: int, value) -> None:
        self._tapped(addr, super()._store, type_, addr, value)

    def _tapped(self, addr: int, access, *args):
        # Logged at completion (no cycle retires between issue and here);
        # direction and width are what the access adds to the memory's
        # byte counters, the one place both are exact for any accessor.
        memory = self.system.memory
        read, written = memory.bytes_read, memory.bytes_written
        result = access(*args)
        size = memory.bytes_written - written
        is_write = size > 0
        if is_write:
            words = self.trace.writes
        else:
            words = self.trace.reads
            size = memory.bytes_read - read
            if size <= 0:
                self.system.sound = False
        self.log(MEM, addr, is_write)
        first, last = addr >> 2, (addr + size - 1) >> 2
        words.add(first)
        if last != first:
            words.update(range(first + 1, last + 1))
        return result

    def _push(self, opcode, fifo, index, value, cycle):
        stalled = super()._push(opcode, fifo, index, value, cycle)
        if not stalled:
            channel, writes = fifo.channel.channel_id, self.trace.writes
            if index is None:
                self.log(BROADCAST, channel)
                writes.update((channel, q, PUSH) for q in range(len(fifo.queues)))
            else:
                self.log(PUSH, channel, index)
                writes.add((channel, index, PUSH))
        return stalled

    def _pop(self, opcode, fifo, index, cycle):
        value = super()._pop(opcode, fifo, index, cycle)
        if value is not STALLED:
            channel = fifo.channel.channel_id
            self.log(POP, channel, index)
            self.trace.writes.add((channel, index, POP))
        return value

    def _join(self, opcode, loop_id, cycle):
        stalled = super()._join(opcode, loop_id, cycle)
        if not stalled:
            self.log(JOIN, loop_id)
        return stalled


class _TappedLiveouts(dict):
    """``liveout_regs`` filing each access under the ticking worker."""

    def __init__(self, system: "_RecordingSystem") -> None:
        super().__init__()
        self._system = system

    def __setitem__(self, liveout_id, value) -> None:
        self._system.ticking().trace.writes.add(("liveout", liveout_id))
        super().__setitem__(liveout_id, value)

    def __getitem__(self, liveout_id):
        self._system.ticking().trace.reads.add(("liveout", liveout_id))
        return super().__getitem__(liveout_id)


class _RecordingSystem(AcceleratorSystem):
    def __init__(self, recording: Recording, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        _require_plain_specialized(self)
        self.recording = recording
        self._worker_cls = _RecordingWorker
        self.liveout_regs = _TappedLiveouts(self)
        #: Gate verdict so far.
        self.sound = True
        #: Traces live since the top worker's open fork (itself first).
        self._generation: list[WorkerTrace] = []

    def ticking(self) -> _RecordingWorker:
        return self._workers[self._scheduler._active_seq]

    def _register_worker(self, worker) -> None:
        super()._register_worker(worker)
        if worker.seq == 0:
            self.recording.top = worker.trace

    def fork_worker(self, inst, liveins, cycle) -> None:
        parent, top = self.ticking().trace, self.recording.top
        if parent is not top:
            self.sound = False  # nested fork: generations would overlap
        if not self._loop_groups:
            # A new generation; this fork orders what the top worker
            # touched so far before everything its children will.
            top.reads, top.writes = set(), set()
            self._generation = [top]
        super().fork_worker(inst, liveins, cycle)
        child = self._workers[-1].trace
        child.loop_id = inst.loop_id
        self.ticking().log(FORK, child)
        self._generation.append(child)

    def finish_join(self, loop_id: int, cycle: int = 0) -> None:
        super().finish_join(loop_id, cycle)
        if self._loop_groups:
            # The join reset every FIFO: a group still open lost a
            # timing-dependent number of values.
            self.sound = False
            return
        if not _disjoint(self._generation):
            self.sound = False
        top, *children = self._generation
        top.reads, top.writes = set(), set()
        for trace in children:
            trace.reads = trace.writes = None
        self._generation = []

    def worker_finished(self, worker) -> None:
        worker.log(DONE)
        worker.trace.ops = dict(worker.stats.ops_executed)
        super().worker_finished(worker)

    def run(self, entry, args) -> SimReport:
        memory = self.memory
        malloc = memory.malloc

        def tapped(*args, **kwargs):
            self.ticking().trace.writes.add(_ALLOCATOR)
            return malloc(*args, **kwargs)

        # An instance attribute: ``alloc_object`` reaches it too.
        memory.malloc = tapped
        try:
            report = super().run(entry, args)
        finally:
            del memory.malloc
        recording = self.recording
        recording.return_value = report.return_value
        recording.liveouts = report.liveouts
        recording.channels = {
            fifo.channel.channel_id: len(fifo.queues)
            for fifo in self._fifos.values()
        }
        recording.usable = (
            self.sound
            and not self._loop_groups  # every forked worker was joined
            and len(recording.channels) == len(self._fifos)  # ids name one FIFO
        )
        return report


# --------------------------------------------------------------------------
# Replay
# --------------------------------------------------------------------------


def _render_tick():
    """``_ReplayWorker.tick``: from the event at ``_at`` to the tick's exit.

    A memory event closes its cache wait together with the compute run
    behind it (completion has no shared effect, so the worker wakes at
    its next event); a push, pop, fork or join that goes ahead runs on
    into its successor's run-up, closed as COMPUTE cycles, or straight
    into the successor itself.  A FIFO or join stall retires through
    :meth:`HwWorker._retire`; every other exit is the timing rule's lines
    (:func:`repro.hw.worker.retire_lines`).
    """
    text = _Text(None, None)
    ref = text.ref
    indent = lambda depth, lines: [" " * depth + line for line in lines]  # noqa: E731
    text.body += [
        "events = self._events",
        "stats = self.stats",
        "at = self._at",
        "run_up, kind, a, b = events[at]",
        "while True:",
        f" if kind == {MEM}:",
        "  ready = self._waiting_until = self.cache.access(a, b, cycle)",
        "  if b: stats.stores += 1",
        "  else: stats.loads += 1",
        "  self._at = at = at + 1",
        "  run_up = events[at][0]",
        "  if run_up:",
        "   if ready <= cycle: ready = cycle + 1",
        *indent(3, retire_lines(text, CycleCategory.CACHE, "ready - cycle", w="self")),
        *indent(3, retire_lines(text, _COMPUTE, "run_up", "ready", w="self")),
        "   return",
        *indent(2, retire_lines(text, CycleCategory.CACHE, w="self")),
        "  return",
        f" if kind == {POP}:",
        f"  opcode, category = {ref('consume')}, {ref(CycleCategory.FIFO_EMPTY)}",
        f"  stalled = self._pop(opcode, self.system.fifo_by_id[a], b, cycle) is {ref(STALLED)}",
        f" elif kind == {PUSH} or kind == {BROADCAST}:",
        f"  opcode = {ref('produce')} if kind == {PUSH} else {ref('produce_broadcast')}",
        f"  category = {ref(CycleCategory.FIFO_FULL)}",
        "  stalled = self._push(opcode, self.system.fifo_by_id[a], b, None, cycle)",
        f" elif kind == {JOIN}:",
        f"  opcode, category = {ref('parallel_join')}, {ref(CycleCategory.JOIN)}",
        "  stalled = self._join(opcode, a, cycle)",
        f" elif kind == {FORK}:",
        "  stalled = False",
        "  self.system.fork_trace(a, cycle)",
        " else:  # DONE",
        "  self._at = at",
        "  self.done = True",
        "  self.system.worker_finished(self)",
        f"  self._retire(cycle, {ref(_COMPUTE)})",
        "  return",
        " if stalled:",
        # ``ops_executed`` is the recorded final count: undo the roll-back
        # of an increment replay never made.
        "  stats.ops_executed[opcode] += 1",
        "  self._at = at",
        "  self._retire(cycle, category)",
        "  return",
        " at += 1",
        " run_up, kind, a, b = events[at]",
        " if run_up:",
        "  self._at = at",
        *indent(2, retire_lines(text, _COMPUTE, "run_up", w="self")),
        "  return",
    ]
    return text.function("self, cycle")


class _ReplayWorker(HwWorker):
    """Walks one :class:`WorkerTrace`: no frames, registers or memory.

    Invariant between ticks: the compute run-up of ``events[_at]`` is
    already retired, so a tick starts *at* its event.
    """

    def __init__(self, name, trace: WorkerTrace, system, start_cycle=0) -> None:
        super().__init__(
            name, trace, (), system,
            worker_id=trace.worker_id, start_cycle=start_cycle,
        )
        run_up = self._events[0][0]
        if run_up:
            self._retire(start_cycle, _COMPUTE, run_up)

    def _enter(self, trace: WorkerTrace, args) -> None:
        self._events = trace.events
        self._at = 0
        self.stats.ops_executed = Counter(trace.ops)
        self._frames = []  # an empty call stack, should the watchdog look

    tick = _render_tick()


class _ReplaySystem(AcceleratorSystem):
    def __init__(self, recording: Recording, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        _require_plain_specialized(self)
        self.recording = recording
        self.fifo_by_id = {
            fifo.channel.channel_id: fifo for fifo in self._fifos.values()
        }
        plan = {cid: len(fifo.queues) for cid, fifo in self.fifo_by_id.items()}
        if not recording.usable or plan != recording.channels:
            raise SimulationError(
                "trace replay: no usable recording of this channel plan"
            )
        self._worker_cls = lambda name, entry, args, system: _ReplayWorker(
            name, recording.top, system
        )

    def fork_trace(self, trace: WorkerTrace, cycle: int) -> None:
        self._start_worker(
            _ReplayWorker(trace.name, trace, self, cycle + 1), trace.loop_id
        )

    def run(self, entry, args) -> SimReport:
        report = super().run(entry, args)
        report.return_value = self.recording.return_value
        report.liveouts = dict(self.recording.liveouts)
        return report
