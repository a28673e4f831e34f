"""Cycle-accurate FSM worker: executes one scheduled task/function.

Each worker is one grey box of the paper's Fig. 2: an independent control
FSM with its own cache port and FIFO connections.  The worker advances at
most one FSM state per cycle; memory operations stall it until the cache
responds, FIFO operations stall on full/empty queues, and multi-cycle
functional units occupy the states the scheduler reserved for them.

Values are computed with the same semantics module the software
interpreter uses (:mod:`repro.interp.ops`), so the hardware simulation is
functionally exact and only timing is modelled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..interp.interpreter import _Text
from ..interp.ops import PURE_OPS
from ..telemetry.events import CycleCategory
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    Alloca,
    Call,
    CondBranch,
    Consume,
    Instruction,
    Jump,
    Load,
    ParallelFork,
    ParallelJoin,
    Phi,
    Produce,
    ProduceBroadcast,
    Ret,
    RetrieveLiveout,
    Store,
    StoreLiveout,
)
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..rtl.schedule import FunctionSchedule

if TYPE_CHECKING:  # pragma: no cover
    from .engine import EventScheduler
    from .system import AcceleratorSystem

#: Sentinel "next due cycle" for workers blocked on an event (FIFO space,
#: FIFO data, join) with no statically-known wake time, and for finished
#: workers.  Large enough to exceed any max_cycles while staying an int.
NEVER = 1 << 62

#: :meth:`HwWorker._pop` result when the queue was empty (a stall was
#: recorded); any other result is the popped value.
STALLED = object()

#: Deepest call stack a worker may build.  The specialized engine's calls
#: are ``yield from`` chains, which take Python stack, so every engine
#: stops at the same call here, well under Python's recursion limit.
MAX_CALL_DEPTH = 512


def call_too_deep(worker: "HwWorker", callee: Function) -> SimulationError:
    """What every engine raises at a call past :data:`MAX_CALL_DEPTH`."""
    return SimulationError(
        f"worker {worker.name}: call to @{callee.name} exceeds call depth {MAX_CALL_DEPTH}"
    )


#: The timing rule, as text (DESIGN.md, "Simulation engine"): what closing
#: ``{k}`` cycles from ``cycle`` as COMPUTE, or as a wait on the cache,
#: does to worker ``{w}``'s counters and to when it is next due (``{cat}``
#: names the category, ``{max}`` the builtin).  :meth:`HwWorker._retire`
#: is rendered from these lines, and so is every exit of the specialized
#: worker's generated states (:func:`retire_lines`): nothing else spells
#: them.
_RETIRE_RULE = {
    CycleCategory.COMPUTE: (
        "{w}.last_category = {cat}",
        "{w}.synced_until = {w}.next_due = cycle + {k}",
        "{w}.stats.active_cycles += {k}",
    ),
    CycleCategory.CACHE: (
        "{w}.last_category = {w}.wait_category = {cat}",
        "{w}.synced_until = cycle + {k}",
        "{w}.stats.mem_stall_cycles += {k}",
        "{w}.next_due = {max}({w}._waiting_until, cycle + {k})",
    ),
}


def retire_lines(
    text: _Text, category: CycleCategory, k: str = "1", w: str = "worker",
) -> list[str]:
    """The lines of ``text`` that close ``category`` cycles ``[cycle,
    cycle + k)`` of worker ``w`` (expressions over the text's locals).

    The first line emits the cycles' trace span when the worker has a sink.
    """
    cat = text.ref(category)
    span = f"{w}._sink.worker_span({w}.name, {cat}, cycle, cycle + {k})"
    return [f"if {w}._trace: {span}"] + [
        line.format(w=w, k=k, cat=cat, max=text.ref(max))
        for line in _RETIRE_RULE[category]
    ]


def _render_retire():
    """:meth:`HwWorker._retire`, from the timing rule's lines."""
    text = _Text(None, None)
    ref = text.ref
    never = ref(NEVER)
    indent = lambda lines: [" " + line for line in lines]  # noqa: E731
    text.body += [
        f"if category is {ref(CycleCategory.COMPUTE)}:",
        *indent(retire_lines(text, CycleCategory.COMPUTE, w="self")),
        " if self.done:  # the top-level ret: nothing left to wake for",
        f"  self.next_due = {never}",
        f"  self.wait_category = {ref(CycleCategory.IDLE)}",
        " return",
        f"if category is {ref(CycleCategory.CACHE)}:",
        *indent(retire_lines(text, CycleCategory.CACHE, w="self")),
        " return",
        "self.last_category = self.wait_category = category",
        "if self._trace:",
        " self._sink.worker_span(self.name, category, cycle, cycle + 1)",
        "self.synced_until = cycle + 1",
        "stats = self.stats",
        "engine = self.engine",
        f"if category is {ref(CycleCategory.FIFO_FULL)}:",
        " stats.fifo_full_stall_cycles += 1",
        # Injected back-pressure: the window end is a statically known
        # retry time, so arm a timer instead of a pop wake.
        " if self._blocked_until > cycle:",
        "  self.next_due = self._blocked_until",
        "  return",
        f" self.next_due = {never}",
        " if engine is not None: engine.wait_on_fifo(self, self._blocked_fifo)",
        f"elif category is {ref(CycleCategory.FIFO_EMPTY)}:",
        " stats.fifo_empty_stall_cycles += 1",
        f" self.next_due = {never}",
        " if engine is not None: engine.wait_on_fifo(self, self._blocked_fifo)",
        f"elif category is {ref(CycleCategory.JOIN)}:",
        " stats.join_stall_cycles += 1",
        f" self.next_due = {never}",
        " if engine is not None: engine.wait_on_join(self, self._blocked_loop)",
        "else:  # IDLE: finished or frozen, or held in reset until start_cycle",
        " stats.idle_cycles += 1",
        f" self.next_due = {never} if self.done or self.hung else "
        f"{ref(max)}(self.start_cycle, cycle + 1)",
    ]
    return text.function("self, cycle, category")


class OpCounter(Counter):
    """A :class:`~collections.Counter` whose ``c[op] += n`` stores through
    dict's own slot: Counter's Python ``__delitem__`` routes every store of
    the base class through a slower one, and a simulation counts each op
    it runs.  (Deleting a missing key raises, as from a dict.)"""

    __delitem__ = dict.__delitem__


@dataclass
class WorkerStats:
    """Per-worker activity counters (feed the power model and telemetry).

    The five cycle counters partition the worker's lifetime: every tick
    increments exactly one of them, so their sum equals the cycles the
    worker was clocked (the conservation invariant the telemetry tests
    verify).
    """

    active_cycles: int = 0
    idle_cycles: int = 0
    mem_stall_cycles: int = 0
    fifo_full_stall_cycles: int = 0
    fifo_empty_stall_cycles: int = 0
    join_stall_cycles: int = 0
    ops_executed: Counter = field(default_factory=OpCounter)
    loads: int = 0
    stores: int = 0
    fifo_pushes: int = 0
    fifo_pops: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.active_cycles
            + self.idle_cycles
            + self.mem_stall_cycles
            + self.fifo_full_stall_cycles
            + self.fifo_empty_stall_cycles
            + self.join_stall_cycles
        )

    def breakdown(self) -> dict[str, int]:
        """Cycles by :class:`~repro.telemetry.events.CycleCategory` value."""
        return {
            CycleCategory.COMPUTE.value: self.active_cycles,
            CycleCategory.CACHE.value: self.mem_stall_cycles,
            CycleCategory.FIFO_FULL.value: self.fifo_full_stall_cycles,
            CycleCategory.FIFO_EMPTY.value: self.fifo_empty_stall_cycles,
            CycleCategory.JOIN.value: self.join_stall_cycles,
            CycleCategory.IDLE.value: self.idle_cycles,
        }

    def to_dict(self) -> dict:
        """JSON-ready form (``ops_executed`` becomes a key-sorted dict)."""
        return {
            "active_cycles": self.active_cycles,
            "idle_cycles": self.idle_cycles,
            "mem_stall_cycles": self.mem_stall_cycles,
            "fifo_full_stall_cycles": self.fifo_full_stall_cycles,
            "fifo_empty_stall_cycles": self.fifo_empty_stall_cycles,
            "join_stall_cycles": self.join_stall_cycles,
            "ops_executed": {
                op: self.ops_executed[op] for op in sorted(self.ops_executed)
            },
            "loads": self.loads,
            "stores": self.stores,
            "fifo_pushes": self.fifo_pushes,
            "fifo_pops": self.fifo_pops,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerStats":
        known = {f.name for f in fields(cls)}
        kept = {k: v for k, v in data.items() if k in known}
        kept["ops_executed"] = Counter(kept.get("ops_executed") or {})
        return cls(**kept)


class _Frame:
    __slots__ = (
        "function", "schedule", "block", "state", "cursor",
        "prev_block", "env", "call_inst", "state_ops",
    )

    def __init__(
        self, function: Function, schedule: FunctionSchedule, call_inst=None
    ) -> None:
        self.function = function
        self.schedule = schedule
        self.block: BasicBlock = function.entry
        self.state = 0
        self.cursor = 0
        self.prev_block: BasicBlock | None = None
        self.env: dict[int, int | float] = {}
        self.call_inst = call_inst
        self.state_ops = schedule.block_schedule(self.block).states

    def enter_block(self, block: BasicBlock) -> None:
        self.prev_block = self.block
        self.block = block
        self.state = 0
        self.cursor = 0
        self.state_ops = self.schedule.block_schedule(block).states


class HwWorker:
    """One hardware worker executing a scheduled function."""

    def __init__(
        self,
        name: str,
        function: Function,
        args: list[int | float],
        system: "AcceleratorSystem",
        worker_id: int = 0,
        start_cycle: int = 0,
    ) -> None:
        self.name = name
        self.system = system
        self.worker_id = worker_id
        self.start_cycle = start_cycle
        self.stats = WorkerStats()
        self._sink = system.sink
        self._trace = system.sink.enabled
        # Cycles before this worker existed (fork at start_cycle - 1) are
        # reset time; pre-seeding them keeps the per-worker conservation
        # invariant exact: category cycles always sum to the run's total.
        self.stats.idle_cycles += start_cycle
        if self._trace and start_cycle > 0:
            self._sink.worker_span(name, CycleCategory.IDLE, 0, start_cycle)
        self.done = False
        #: Frozen by an injected :class:`~repro.faults.plan.WorkerHangFault`
        #: (or a wedged FSM): the worker ticks as IDLE forever and never
        #: finishes, so anything downstream of it eventually deadlocks.
        self.hung = False
        self.return_value: int | float | None = None
        #: Loop group this worker was forked into (None for the top worker).
        self.loop_id: int | None = None
        #: Position in the system's worker list; the clock loop ticks
        #: workers in ``seq`` order, which the event engine's same-cycle
        #: wake rule must respect to stay bit-identical with lockstep.
        self.seq = 0
        #: Event scheduler driving this run (None under the lockstep engine).
        self.engine: "EventScheduler | None" = None
        #: Earliest cycle at which this worker can next make progress.
        self.next_due = start_cycle
        #: Cycle up to which stats/trace attribution has been written.
        self.synced_until = start_cycle
        #: Category every not-yet-attributed cycle since ``synced_until``
        #: belongs to (the worker's current wait reason).
        self.wait_category = CycleCategory.IDLE
        #: Category of the most recent tick; the lockstep deadlock check
        #: and the watchdog's wait-for-graph snapshot read it.
        self.last_category = CycleCategory.IDLE
        self._waiting_until = 0
        self._blocked_fifo = None
        self._blocked_index: int | None = None
        self._blocked_loop = -1
        #: End of the injected back-pressure window currently blocking a
        #: push (0 when the block is a genuinely full queue); lets the
        #: event engine re-arm on a timer instead of waiting for a pop.
        self._blocked_until = 0
        self._injector = system.injector
        #: The cache this worker's memory port talks to (shared, or a
        #: private slice under the Appendix B.1 memory-partitioning mode).
        self.cache = system.cache_for_new_worker()
        #: What the event clock calls at a cycle this worker is due.
        self.resume = self.tick
        self._enter(function, args)

    def _enter(self, function: Function, args: list[int | float]) -> None:
        """Stand at the entry of ``function`` called with ``args`` (the
        specialized worker starts a generator instead of a frame stack)."""
        schedule = self.system.schedule_for(function)
        frame = _Frame(function, schedule)
        if len(args) != len(function.args):
            raise SimulationError(
                f"worker {self.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        for formal, actual in zip(function.args, args):
            frame.env[id(formal)] = actual
        self._frames = [frame]
        self._pending_mem: tuple[Instruction, int] | None = None

    # -- value plumbing ---------------------------------------------------------

    def _value(self, frame: _Frame, v: Value):
        if isinstance(v, Constant):
            return v.value
        if isinstance(v, GlobalVariable):
            return self.system.global_addresses[v.name]
        try:
            return frame.env[id(v)]
        except KeyError:
            raise SimulationError(
                f"worker {self.name}: undefined value {v.short_name()} in "
                f"@{frame.function.name}"
            ) from None

    # -- main clock edge ----------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Advance one clock edge, attributing the cycle to one category."""
        self._retire(cycle, self._tick(cycle))

    #: ``_retire(cycle, category)`` closes ``cycle`` as one cycle of
    #: ``category``: the timing rule.  It bumps the category's counter,
    #: emits the per-cycle trace event and tells the event clock when this
    #: worker next needs a tick.  Cycles with a statically-known resume
    #: cycle (compute, cache waits, reset holds, an injected back-pressure
    #: window) set ``next_due`` directly; event waits (FIFO space, FIFO
    #: data, join) park the worker at ``NEVER`` and register a wake
    #: condition, so the clock can jump straight past the whole stall.  The
    #: lockstep clock runs the same code and never reads the arming fields.
    #: Rendered from ``_RETIRE_RULE``, the lines every generated exit
    #: closes its cycles with.
    _retire = _render_retire()

    def _tick(self, cycle: int) -> CycleCategory:
        if self.done or self.hung:
            return CycleCategory.IDLE
        if cycle < self.start_cycle:
            return CycleCategory.IDLE
        if cycle < self._waiting_until:
            return CycleCategory.CACHE
        if (
            self._injector.enabled
            and self._injector.hang_pending(self, cycle)
            and not self._would_block(cycle)
        ):
            # Freeze only at a progress-capable tick: during a stall both
            # engines attribute the same wait cycles whether or not the
            # hang is pending, so the simulated history up to the freeze
            # stays bit-identical between them.
            self.hung = True
            self._injector.hang_triggered(self)
            return CycleCategory.IDLE
        if self._pending_mem is not None:
            self._complete_memory()
        frame = self._frames[-1]
        ops = (
            frame.state_ops[frame.state]
            if frame.state < len(frame.state_ops)
            else []
        )
        while frame.cursor < len(ops):
            inst = ops[frame.cursor]
            outcome = self._execute(frame, inst, cycle)
            if outcome == "wait_mem":
                # Issue cycle of a load/store whose data isn't ready yet.
                return CycleCategory.CACHE
            if outcome == "wait_full":
                return CycleCategory.FIFO_FULL
            if outcome == "wait_empty":
                return CycleCategory.FIFO_EMPTY
            if outcome == "wait_join":
                return CycleCategory.JOIN
            if outcome in ("call", "ret", "branch"):
                if self._trace and not self.done:
                    self._emit_state(cycle)
                return CycleCategory.COMPUTE
            frame.cursor += 1
        # State complete: advance within the block (one state per cycle).
        frame.state += 1
        frame.cursor = 0
        if frame.state >= len(frame.state_ops):
            raise SimulationError(
                f"worker {self.name}: fell off the end of block "
                f"{frame.block.short_name()} (missing terminator?)"
            )
        if self._trace:
            self._emit_state(cycle)
        return CycleCategory.COMPUTE

    def _would_block(self, cycle: int) -> bool:
        """Read-only probe: would ``_tick(cycle)`` stall without progress?

        Used to defer an injected hang to a progress-capable tick.  Must
        stay side-effect free: it runs every lockstep cycle while a hang
        is pending but only at wake ticks under the event engine, so any
        state it touched would break engine bit-identity.
        """
        if self._pending_mem is not None:
            return False  # completing the outstanding access is progress
        frame = self._frames[-1]
        ops = (
            frame.state_ops[frame.state]
            if frame.state < len(frame.state_ops)
            else []
        )
        if frame.cursor >= len(ops):
            return False  # state advance is progress
        inst = ops[frame.cursor]
        if isinstance(inst, (Produce, ProduceBroadcast)):
            return self._push_stall(*self._queue(frame, inst), cycle) >= 0
        if isinstance(inst, Consume):
            fifo, index = self._queue(frame, inst)
            return not fifo.can_pop(index)
        if isinstance(inst, ParallelJoin):
            return not self.system.join_ready(inst.loop_id)
        return False

    def event_blocked(self, cycle: int) -> bool:
        """True when only another worker's action can unblock this worker.

        The lockstep engine's per-cycle deadlock test: exactly the
        condition under which the event engine parks the worker at
        ``NEVER``, so both engines detect a deadlock at the same cycle.
        """
        if self.done:
            return False
        if self.hung:
            return True
        category = self.last_category
        if category is CycleCategory.FIFO_FULL:
            if self._blocked_until > cycle:
                # An active injected back-pressure window has a known end
                # (a pending timer under the event engine): not a deadlock.
                return False
            # Recheck the queue: a pop later in this same cycle would
            # have queued a wake event under the event engine.
            if self._blocked_index is None:
                return not self._blocked_fifo.can_push_broadcast()
            return not self._blocked_fifo.can_push(self._blocked_index)
        if category is CycleCategory.FIFO_EMPTY:
            return not self._blocked_fifo.can_pop(self._blocked_index)
        if category is CycleCategory.JOIN:
            return not self.system.join_ready(self._blocked_loop)
        return False

    def _emit_state(self, cycle: int) -> None:
        frame = self._frames[-1]
        self._sink.worker_state(
            self.name,
            cycle,
            f"{frame.function.name}:{frame.block.short_name()}",
            frame.state,
        )

    def _complete_memory(self) -> None:
        inst, addr = self._pending_mem  # type: ignore[misc]
        frame = self._frames[-1]
        if isinstance(inst, Load):
            frame.env[id(inst)] = self.system.memory.load(addr, inst.type)
        else:
            assert isinstance(inst, Store)
            self.system.memory.store(
                addr, inst.value.type, self._value(frame, inst.value)
            )
        self._pending_mem = None
        frame.cursor += 1

    # -- blocking-op protocol --------------------------------------------------------
    #
    # Every FIFO/join stall, on either worker implementation, goes through
    # these: the injected back-pressure window, the queue stall counters,
    # the roll-back of the caller's ``ops_executed`` increment and the
    # ``_blocked_*`` attributes the event engine and the watchdog read are
    # spelled here only.  ``index`` None is a broadcast (every queue).

    def _queue(self, frame: _Frame, inst: Instruction):
        """``(fifo, queue index)`` a produce/consume at ``inst`` addresses."""
        fifo = self.system.fifo_for(inst.channel)
        if isinstance(inst, ProduceBroadcast):
            return fifo, None
        select = inst.worker_select
        own = self.worker_id if select is None else int(self._value(frame, select))
        return fifo, own % inst.channel.n_channels

    def _push_stall(self, fifo, index: int | None, cycle: int) -> int:
        """Side-effect-free probe: -1 when a push can go ahead, else the
        end of the injected window holding it (0: a genuinely full queue)."""
        until = fifo.injected_block_until(cycle) if self._injector.enabled else 0
        if until > cycle:
            return until
        room = fifo.can_push_broadcast() if index is None else fifo.can_push(index)
        return -1 if room else until

    def _push(self, opcode: str, fifo, index: int | None, value, cycle: int) -> bool:
        """Push ``value``, or record a full stall and return True."""
        until = self._push_stall(fifo, index, cycle)
        if until >= 0:
            if until > cycle and self.last_category is not CycleCategory.FIFO_FULL:
                self._injector.note_backpressure_block(fifo, cycle)
            fifo.stats.full_stall_cycles += 1
            self.stats.ops_executed[opcode] -= 1
            self._blocked_fifo = fifo
            self._blocked_index = index
            self._blocked_until = until
            return True
        if index is None:
            fifo.push_broadcast(value, cycle)
            self.stats.fifo_pushes += len(fifo.queues)
        else:
            fifo.push(index, value, cycle)
            self.stats.fifo_pushes += 1
        return False

    def _pop(self, opcode: str, fifo, index: int, cycle: int):
        """The head of queue ``index``, or :data:`STALLED` when it is empty
        (probe: ``fifo.can_pop(index)``)."""
        if not fifo.queues[index]:
            fifo.stats.empty_stall_cycles += 1
            self.stats.ops_executed[opcode] -= 1
            self._blocked_fifo = fifo
            self._blocked_index = index
            return STALLED
        value = fifo.pop(index, cycle)
        self.stats.fifo_pops += 1
        return value

    def _join(self, opcode: str, loop_id: int, cycle: int) -> bool:
        """Retire loop ``loop_id``'s workers, or record a join stall and
        return True (probe: ``system.join_ready(loop_id)``)."""
        if not self.system.join_ready(loop_id):
            self.stats.ops_executed[opcode] -= 1
            self._blocked_loop = loop_id
            return True
        self.system.finish_join(loop_id, cycle)
        return False

    # -- instruction execution ------------------------------------------------------

    def _execute(self, frame: _Frame, inst: Instruction, cycle: int) -> str:
        self.stats.ops_executed[inst.opcode] += 1
        evaluate = PURE_OPS.get(type(inst))
        if evaluate is not None:
            operands = inst.operands
            if len(operands) == 2:  # binop/icmp/fcmp: the hot shape
                a, b = operands
                value = evaluate(inst, self._value(frame, a), self._value(frame, b))
            else:
                value = evaluate(inst, *[self._value(frame, v) for v in operands])
            frame.env[id(inst)] = value
            return "ok"
        if isinstance(inst, Load):
            addr = int(self._value(frame, inst.pointer))
            ready = self.cache.access(addr, False, cycle)
            self.stats.loads += 1
            self._pending_mem = (inst, addr)
            self._waiting_until = ready
            return "wait_mem"
        if isinstance(inst, Store):
            addr = int(self._value(frame, inst.pointer))
            ready = self.cache.access(addr, True, cycle)
            self.stats.stores += 1
            self._pending_mem = (inst, addr)
            self._waiting_until = ready
            return "wait_mem"
        if isinstance(inst, (Produce, ProduceBroadcast)):
            value = self._value(frame, inst.value)
            stalled = self._push(inst.opcode, *self._queue(frame, inst), value, cycle)
            return "wait_full" if stalled else "ok"
        if isinstance(inst, Consume):
            value = self._pop(inst.opcode, *self._queue(frame, inst), cycle)
            if value is STALLED:
                return "wait_empty"
            frame.env[id(inst)] = value
            return "ok"
        if isinstance(inst, StoreLiveout):
            self.system.liveout_regs[inst.liveout_id] = self._value(frame, inst.value)
            return "ok"
        if isinstance(inst, RetrieveLiveout):
            if inst.liveout_id not in self.system.liveout_regs:
                raise SimulationError(f"liveout #{inst.liveout_id} never stored")
            frame.env[id(inst)] = self.system.liveout_regs[inst.liveout_id]
            return "ok"
        if isinstance(inst, ParallelFork):
            liveins = [self._value(frame, v) for v in inst.liveins]
            self.system.fork_worker(inst, liveins, cycle)
            return "ok"
        if isinstance(inst, ParallelJoin):
            stalled = self._join(inst.opcode, inst.loop_id, cycle)
            return "wait_join" if stalled else "ok"
        if isinstance(inst, Call):
            if inst.callee.is_declaration:
                return self._builtin_call(frame, inst)
            if len(self._frames) >= MAX_CALL_DEPTH:
                raise call_too_deep(self, inst.callee)
            callee_schedule = self.system.schedule_for(inst.callee)
            new_frame = _Frame(inst.callee, callee_schedule, call_inst=inst)
            for formal, actual in zip(inst.callee.args, inst.args):
                new_frame.env[id(formal)] = self._value(frame, actual)
            self._frames.append(new_frame)
            return "call"
        if isinstance(inst, Ret):
            value = None if inst.value is None else self._value(frame, inst.value)
            self._frames.pop()
            if not self._frames:
                self.done = True
                self.system.worker_finished(self)
                self.return_value = value
                return "ret"
            caller = self._frames[-1]
            if value is not None:
                caller.env[id(frame.call_inst)] = value
            caller.cursor += 1
            return "ret"
        if isinstance(inst, Jump):
            self._branch_to(frame, inst.target)
            return "branch"
        if isinstance(inst, CondBranch):
            cond = self._value(frame, inst.cond)
            self._branch_to(frame, inst.if_true if cond else inst.if_false)
            return "branch"
        if isinstance(inst, Alloca):
            frame.env[id(inst)] = self.system.memory.alloc_object(
                inst.allocated_type, site=-2
            )
            return "ok"
        if isinstance(inst, Phi):
            return "ok"  # phis are resolved on block entry
        raise SimulationError(f"worker cannot execute opcode {inst.opcode}")

    def _builtin_call(self, frame: _Frame, inst: Call) -> str:
        from ..interp.interpreter import MALLOC_NAMES

        if inst.callee.name in MALLOC_NAMES:
            size = int(self._value(frame, inst.args[0]))
            frame.env[id(inst)] = self.system.memory.malloc(size, site=-4)
            return "ok"
        raise SimulationError(f"call to undefined @{inst.callee.name} in hardware")

    def _branch_to(self, frame: _Frame, target: BasicBlock) -> None:
        # Evaluate the target's phis against the edge (atomically).
        phis = target.phis()
        values = [
            self._value(frame, phi.incoming_for(frame.block)) for phi in phis
        ]
        frame.enter_block(target)
        for phi, value in zip(phis, values):
            frame.env[id(phi)] = value
            self.stats.ops_executed["phi"] += 1
        # Skip the phi ops at the head of state 0 (already applied).
        ops0 = frame.state_ops[0] if frame.state_ops else []
        while frame.cursor < len(ops0) and isinstance(ops0[frame.cursor], Phi):
            frame.cursor += 1
