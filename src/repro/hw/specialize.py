"""Worker-FSM specialization: compile schedules into generated code.

The base :class:`~repro.hw.worker.HwWorker` interprets ``Instruction``
objects on every tick: a long ``isinstance`` dispatch chain, an
``id()``-keyed environment dict per operand, and a per-block-entry rebuild
of the schedule's state table.  All of that is loop-invariant — the FSM,
the operand routing and the dispatch targets are fixed the moment the
pipeline is compiled — so ``engine="specialized"`` resolves it once per
function:

* every SSA value gets a slot in a flat ``regs`` list (constants are baked
  into the code, globals are filled in at frame construction);
* register-only ops — pure ops, phis, branches — are generated Python,
  rendered on first use through the interpreter's IR-to-Python generator
  (:class:`repro.interp.interpreter._Text`): each pure op is its
  expression form from the shared op table
  (:data:`repro.interp.ops.FORMS`: same values, same error messages, same
  rounding as every other engine), and a taken edge is one parallel copy
  of the target's phi registers;
* a run of register-only FSM states — which cannot park — is one
  generated function (``SpecBlock.runs``) that the tick calls to run
  ahead; inside a state, a maximal group of register-only ops is one
  generated step; only ops that touch shared state (memory, FIFOs,
  liveouts, fork/join, calls) remain closures.

Everything observable is kept **bit-identical** to the event engine:
``WorkerStats``, stall attribution, telemetry spans/states and the
watchdog's wait-for-graph attributes (``_frames[*].function``,
``last_category``).  FIFO and join steps are calls into the inherited
:class:`~repro.hw.worker.HwWorker` blocking-op protocol, so the fault
hooks, the ``ops_executed`` roll-back of a blocked op and the
``_blocked_*`` bookkeeping are literally the same code.  The differential
suite in ``tests/test_specialized_engine.py`` pins this against both
oracles.

The clock loop is unchanged: a specialized system runs under the same
:class:`~repro.hw.engine.EventScheduler` as ``engine="event"``.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..interp.interpreter import MALLOC_NAMES, _Text, escapes
from ..interp.ops import FORMS
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
from ..ir.values import Constant, GlobalVariable
from ..rtl.schedule import FunctionSchedule, schedule_function
from ..telemetry.events import CycleCategory
from .worker import STALLED, HwWorker

if TYPE_CHECKING:  # pragma: no cover
    from .system import AcceleratorSystem

# Step outcomes (compared with ``is`` in the tick loop; module-level
# constants so every closure returns the same interned object).
_OK = "ok"
_WAIT_MEM = "wait_mem"
_WAIT_FULL = "wait_full"
_WAIT_EMPTY = "wait_empty"
_WAIT_JOIN = "wait_join"
_CALL = "call"
_RET = "ret"
_BRANCH = "branch"
_RAN = "ran"  # a generated group ran and left the frame's cursor past it

#: The cycle category each stalling outcome retires as (call/ret and the
#: state-advancing outcomes are COMPUTE).
_STALL_CATEGORY = {
    _WAIT_MEM: CycleCategory.CACHE,
    _WAIT_FULL: CycleCategory.FIFO_FULL,
    _WAIT_EMPTY: CycleCategory.FIFO_EMPTY,
    _WAIT_JOIN: CycleCategory.JOIN,
}

_COMPUTE = CycleCategory.COMPUTE  # bound once: every run-ahead exit passes it

#: Instruction classes whose steps touch only the frame's registers; a
#: branch and its phi-latching edge are register-only control flow.
_REGISTER_ONLY = (*FORMS, Phi, Jump, CondBranch)


class _Accessors(dict):
    """``memory class -> its pre-bound accessor`` for one access type.

    A program is compiled before it meets a memory and is shared by every
    system that runs its function, so the accessor is resolved per class
    on first use.  :meth:`Memory.loader`/:meth:`Memory.storer` keep a
    subclass on its own ``load``/``store``.
    """

    def __init__(self, kind: str, type_) -> None:
        self.kind = kind
        self.type = type_

    def __missing__(self, memory_class):
        accessor = self[memory_class] = getattr(memory_class, self.kind)(self.type)
        return accessor


class SpecBlock:
    """One basic block compiled to per-state step lists.

    ``states[s][i]`` is the step at op ``i`` of FSM state ``s`` wherever a
    frame's cursor can stand: a closure for an op that touches shared
    state, else a generated group running every register-only op up to
    the next such op (positions inside a group hold None).  ``probes[s]``
    holds the aligned side-effect-free would-block probes (None for ops
    that can never stall), ``runs[s]`` the generated run-ahead from state
    ``s`` (None unless ``pure[s]``).  ``entry_cursor`` is the number of
    leading phi steps in state 0, skipped when the block is entered via a
    branch edge (the edge already latched the phi registers).
    """

    __slots__ = ("label", "trace_label", "n_states", "states", "probes",
                 "pure", "runs", "entry_cursor")

    def __init__(self, label: str, trace_label: str, table) -> None:
        self.label = label
        self.trace_label = trace_label
        self.n_states = len(table)
        self.states: list[list] = []
        self.probes: list[list] = []
        #: ``pure[s]`` — every op in state ``s`` reads/writes only the
        #: frame's private register file (no memory, FIFO, liveout, fork,
        #: join, call or return; a branch only moves the frame).  A run of
        #: pure states can be executed in one tick and attributed as a
        #: batch of COMPUTE cycles: nothing in it is observable by any
        #: other worker.  One trailing ``False`` stops a run at the end
        #: of a block that lacks its terminator.
        self.pure: list[bool] = []
        self.runs: list = []
        # Leading phis of state 0 are latched by the incoming edge; a
        # branch entry starts past them (function entry executes them as
        # counted no-ops, matching the interpreted worker's cursor rule).
        ops0 = table[0] if table else []
        skip = 0
        while skip < len(ops0) and isinstance(ops0[skip], Phi):
            skip += 1
        self.entry_cursor = skip


class SpecFrame:
    """Activation record of a specialized function: a flat register file."""

    __slots__ = ("function", "program", "block", "state", "cursor", "steps",
                 "regs", "ret_slot")

    def __init__(
        self,
        program: "SpecializedProgram",
        system: "AcceleratorSystem",
        ret_slot: int | None = None,
    ) -> None:
        self.function = program.function
        self.program = program
        entry = program.entry
        self.block = entry
        self.state = 0
        self.cursor = 0
        self.steps = entry.states[0]
        regs: list = [None] * program.n_slots
        if program.global_slots:
            addresses = system.global_addresses
            for name, slot in program.global_slots:
                regs[slot] = addresses[name]
        self.regs = regs
        self.ret_slot = ret_slot


class SpecializedProgram:
    """One function's FSM schedule compiled into steps and runs (shared by
    all workers and systems running that function)."""

    def __init__(self, function: Function, schedule: FunctionSchedule) -> None:
        self.function = function
        self._slots: dict[int, int] = {}  # id(arg/inst) -> register slot
        self._globals: dict[str, int] = {}  # global name -> register slot
        self.n_slots = 0
        self._blocks: dict[int, SpecBlock] = {}
        self._tables: dict[int, list] = {}  # id(block) -> ops per FSM state
        for arg in function.args:
            self._slots[id(arg)] = self._alloc()
        for block in function.blocks:
            for inst in block.instructions:
                self._slots[id(inst)] = self._alloc()
                for value in inst.operands:  # code renders lazily: slot globals now
                    if isinstance(value, GlobalVariable):
                        self._bind(value)
        for block in function.blocks:
            table = self._tables[id(block)] = schedule.block_schedule(block).states
            self._blocks[id(block)] = SpecBlock(
                block.short_name(), f"{function.name}:{block.short_name()}", table
            )
        self.entry = self._blocks[id(function.entry)]
        for block in function.blocks:
            self._compile_block(block)
        #: (name, slot) pairs for frame construction, deterministic order.
        self.global_slots = sorted(self._globals.items())

    # -- slot plumbing ------------------------------------------------------

    def _alloc(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def slot_of(self, value) -> int:
        return self._slots[id(value)]

    def _bind(self, value) -> tuple[int, int | float | None]:
        """Operand descriptor ``(slot, const)``: closures read
        ``regs[slot]`` when ``slot >= 0``, else the baked constant."""
        if isinstance(value, Constant):
            return -1, value.value
        if isinstance(value, GlobalVariable):
            slot = self._globals.get(value.name)
            if slot is None:
                slot = self._globals[value.name] = self._alloc()
            return slot, None
        return self._slots[id(value)], None

    def _key(self, value) -> tuple[int | None, int | float | None]:
        """The generator's ``(key, const)``: a register slot or a constant."""
        slot, const = self._bind(value)
        return (None, const) if slot < 0 else (slot, None)

    # -- block compilation --------------------------------------------------

    def _compile_block(self, block: BasicBlock) -> None:
        sb = self._blocks[id(block)]
        for s, state_ops in enumerate(self._tables[id(block)]):
            n = len(state_ops)
            steps: list = [None] * n
            probes: list = [None] * n
            landings = {0, sb.entry_cursor if s == 0 else 0}
            for i, inst in enumerate(state_ops):
                if not isinstance(inst, _REGISTER_ONLY):
                    steps[i], probes[i] = self._compile_inst(inst)
                    landings.add(i + 1)
            for i in sorted(landings):
                if i < n and steps[i] is None:  # a register-only group starts here
                    j = i + 1
                    while j < n and steps[j] is None and j not in landings:
                        j += 1
                    steps[i] = _lazy(steps, i, self._render, block, s, i, j)
            sb.states.append(steps)
            sb.probes.append(probes)
            sb.pure.append(all(isinstance(inst, _REGISTER_ONLY) for inst in state_ops))
        sb.pure.append(False)
        sb.runs = runs = [None] * len(sb.pure)
        for s, pure in enumerate(sb.pure):
            if pure:  # a run enters state 0 from an edge, past the phis
                lo = 0 if s else sb.entry_cursor
                runs[s] = _lazy(runs, s, self._render, block, s, lo, None)

    def _render(self, block: BasicBlock, first: int, lo: int, end: int | None):
        """Generated code for the register-only ops from op ``lo`` of FSM
        state ``first``.

        With ``end``, a *group*: ops ``[lo, end)`` of that one state, a
        step ``(worker, frame, cycle)`` returning ``_RAN`` with the frame's
        cursor at ``end``, or ``_BRANCH`` with the frame in the taken
        edge's target.  Without, a *run*: that state and every following
        pure state of the block, ``(regs, ops, room) -> (block, state,
        start, states, progress)``, executing at most ``room`` states.
        Registers are locals, stored back only for a reader outside the
        function.  (A run stopped for ``room`` leaves its worker due at
        ``max_cycles``, where the clock raises the budget error before any
        tick, so what the states it did not reach would read is never
        read.)  ``ops_executed`` and progress are static per exit, added
        once on the way out.
        """
        sb = self._blocks[id(block)]
        table = self._tables[id(block)]
        if end is None:
            stop = first
            while sb.pure[stop]:
                stop += 1
            rows = [table[first][lo:]] + table[first + 1 : stop]
        else:
            rows = [table[first][lo:end]]
        members = {inst for row in rows for inst in row}
        closes = block.terminator in members
        text = _Text(self._key, lambda slot: f"regs[{slot}]")
        body, ref = text.body, text.ref
        if end is not None:
            body += ["regs = frame.regs", "ops = worker.stats.ops_executed"]
        counts: Counter = Counter()
        progress = 0

        def leave(out: list, counts: Counter, outcome) -> None:
            out += [f"ops[{ref(op)}] += {n}" for op, n in counts.items() if n]
            out.append(f"return {ref(outcome)}")

        def edge(target: BasicBlock, local: dict) -> list[str]:
            out: list[str] = []
            phis = target.phis()
            text.moves([(phi, phi.incoming_for(block)) for phi in phis], local, out)
            tb = self._blocks[id(target)]
            if end is not None:
                out += [f"frame.block = {ref(tb)}", f"frame.cursor = {tb.entry_cursor}"]
            done = (tb, 0, tb.entry_cursor, len(rows), progress)
            leave(out, counts + Counter(phi=len(phis)), _BRANCH if end is not None else done)
            return out

        for i, row in enumerate(rows):
            if i:  # out of room: stop before this state
                out: list[str] = []
                leave(out, counts, (sb, first + i, 0, i, progress))
                body += [f"if room == {i}:", *(" " + line for line in out)]
            counts.update(inst.opcode for inst in row)
            branch = bool(row) and type(row[-1]) in (Jump, CondBranch)
            progress += len(row) + (not branch)
            for inst in row:
                cls = type(inst)
                if cls in FORMS:
                    text.pure(inst, escapes(inst, members, block, closes))
                elif cls is Jump:
                    body += edge(inst.target, text.local)
                elif cls is CondBranch:
                    body.append(f"if {text.use(inst.cond)}:")
                    body += [" " + line for line in edge(inst.if_true, dict(text.local))]
                    body.append("else:")
                    body += [" " + line for line in edge(inst.if_false, dict(text.local))]
                # a phi here starts a function: counted, its register already set
        if not branch:  # only the last state can end with the terminator
            if end is not None:
                body.append(f"frame.cursor = {end}")
            leave(body, counts, _RAN if end is not None else (sb, stop, 0, len(rows), progress))
        return text.function("regs, ops, room" if end is None else "worker, frame, cycle")

    # -- instruction compilation --------------------------------------------

    def _compile_inst(self, inst: Instruction):
        """Return ``(step, probe)`` closures for one op that touches shared
        state (or cannot execute)."""
        opcode = inst.opcode
        if isinstance(inst, Load):
            return self._compile_load(inst), None
        if isinstance(inst, Store):
            return self._compile_store(inst), None
        if isinstance(inst, (Produce, ProduceBroadcast)):
            return self._compile_produce(inst)
        if isinstance(inst, Consume):
            return self._compile_consume(inst)
        if isinstance(inst, StoreLiveout):
            lid = inst.liveout_id
            iv, cv = self._bind(inst.value)

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                regs = frame.regs
                worker.system.liveout_regs[lid] = regs[iv] if iv >= 0 else cv
                return _OK

            return step, None
        if isinstance(inst, RetrieveLiveout):
            lid = inst.liveout_id
            dst = self._slots[id(inst)]

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                liveouts = worker.system.liveout_regs
                if lid not in liveouts:
                    raise SimulationError(f"liveout #{lid} never stored")
                frame.regs[dst] = liveouts[lid]
                return _OK

            return step, None
        if isinstance(inst, ParallelFork):
            binds = [self._bind(v) for v in inst.liveins]

            def step(worker, frame, cycle, inst=inst):
                worker.stats.ops_executed[opcode] += 1
                regs = frame.regs
                liveins = [regs[s] if s >= 0 else c for s, c in binds]
                worker.system.fork_worker(inst, liveins, cycle)
                return _OK

            return step, None
        if isinstance(inst, ParallelJoin):
            return self._compile_join(inst)
        if isinstance(inst, Call):
            return self._compile_call(inst), None
        if isinstance(inst, Ret):
            return self._compile_ret(inst), None
        if isinstance(inst, Alloca):
            dst = self._slots[id(inst)]
            atype = inst.allocated_type

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                frame.regs[dst] = worker.system.memory.alloc_object(
                    atype, site=-2
                )
                return _OK

            return step, None

        def step(worker, frame, cycle):  # pragma: no cover - malformed IR
            worker.stats.ops_executed[opcode] += 1
            raise SimulationError(f"worker cannot execute opcode {opcode}")

        return step, None

    def _compile_load(self, inst: Load):
        dst = self._slots[id(inst)]
        opcode = inst.opcode
        ip, cp = self._bind(inst.pointer)
        loaders = _Accessors("loader", inst.type)

        def complete(worker, frame, addr):
            memory = worker.system.memory
            frame.regs[dst] = loaders[type(memory)](memory, addr)

        def step(worker, frame, cycle):
            worker.stats.ops_executed[opcode] += 1
            regs = frame.regs
            addr = int(regs[ip] if ip >= 0 else cp)
            ready = worker.cache.access(addr, False, cycle)
            worker.stats.loads += 1
            worker._pending_mem = (complete, addr)
            worker._waiting_until = ready
            return _WAIT_MEM

        return step

    def _compile_store(self, inst: Store):
        opcode = inst.opcode
        ip, cp = self._bind(inst.pointer)
        iv, cv = self._bind(inst.value)
        storers = _Accessors("storer", inst.value.type)

        def complete(worker, frame, addr):
            # The stored value is fetched at completion time, exactly as
            # the interpreted worker's _complete_memory does.
            regs = frame.regs
            memory = worker.system.memory
            storers[type(memory)](memory, addr, regs[iv] if iv >= 0 else cv)

        def step(worker, frame, cycle):
            worker.stats.ops_executed[opcode] += 1
            regs = frame.regs
            addr = int(regs[ip] if ip >= 0 else cp)
            ready = worker.cache.access(addr, True, cycle)
            worker.stats.stores += 1
            worker._pending_mem = (complete, addr)
            worker._waiting_until = ready
            return _WAIT_MEM

        return step

    def _compile_queue(self, inst: Produce | ProduceBroadcast | Consume):
        """Closure form of :meth:`HwWorker._queue`: ``(worker, regs) ->
        (fifo, queue index)``."""
        channel = inst.channel
        n_channels = channel.n_channels
        if isinstance(inst, ProduceBroadcast):
            return lambda worker, regs: (worker.system.fifo_for(channel), None)
        if inst.worker_select is None:
            return lambda worker, regs: (
                worker.system.fifo_for(channel), worker.worker_id % n_channels
            )
        isel, csel = self._bind(inst.worker_select)
        return lambda worker, regs: (
            worker.system.fifo_for(channel),
            int(regs[isel] if isel >= 0 else csel) % n_channels,
        )

    def _compile_produce(self, inst: Produce | ProduceBroadcast):
        opcode = inst.opcode
        queue = self._compile_queue(inst)
        ival, cval = self._bind(inst.value)

        def step(worker, frame, cycle):
            worker.stats.ops_executed[opcode] += 1
            regs = frame.regs
            value = regs[ival] if ival >= 0 else cval
            stalled = worker._push(opcode, *queue(worker, regs), value, cycle)
            return _WAIT_FULL if stalled else _OK

        def probe(worker, frame, cycle):
            return worker._push_stall(*queue(worker, frame.regs), cycle) >= 0

        return step, probe

    def _compile_consume(self, inst: Consume):
        opcode = inst.opcode
        queue = self._compile_queue(inst)
        dst = self._slots[id(inst)]

        def step(worker, frame, cycle):
            worker.stats.ops_executed[opcode] += 1
            regs = frame.regs
            value = worker._pop(opcode, *queue(worker, regs), cycle)
            if value is STALLED:
                return _WAIT_EMPTY
            regs[dst] = value
            return _OK

        def probe(worker, frame, cycle):
            fifo, index = queue(worker, frame.regs)
            return not fifo.can_pop(index)

        return step, probe

    def _compile_join(self, inst: ParallelJoin):
        opcode = inst.opcode
        loop_id = inst.loop_id

        def step(worker, frame, cycle):
            worker.stats.ops_executed[opcode] += 1
            return _WAIT_JOIN if worker._join(opcode, loop_id, cycle) else _OK

        def probe(worker, frame, cycle):
            return not worker.system.join_ready(loop_id)

        return step, probe

    def _compile_call(self, inst: Call):
        opcode = inst.opcode
        dst = self._slots[id(inst)]
        callee = inst.callee
        if callee.is_declaration:
            if callee.name in MALLOC_NAMES:
                isz, csz = self._bind(inst.args[0])

                def step(worker, frame, cycle):
                    worker.stats.ops_executed[opcode] += 1
                    regs = frame.regs
                    size = int(regs[isz] if isz >= 0 else csz)
                    regs[dst] = worker.system.memory.malloc(size, site=-4)
                    return _OK

                return step

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                raise SimulationError(
                    f"call to undefined @{callee.name} in hardware"
                )

            return step
        arg_binds = [self._bind(a) for a in inst.args]
        # The callee program is resolved lazily (first execution) so
        # mutually recursive functions can specialize each other.
        cell: list = [None]

        def step(worker, frame, cycle):
            worker.stats.ops_executed[opcode] += 1
            bound = cell[0]
            if bound is None:
                program = specialized_for(callee)
                bound = cell[0] = (
                    program,
                    [program.slot_of(formal) for formal in callee.args],
                )
            program, formal_slots = bound
            new_frame = SpecFrame(program, worker.system, ret_slot=dst)
            nregs = new_frame.regs
            regs = frame.regs
            for slot, (s, c) in zip(formal_slots, arg_binds):
                nregs[slot] = regs[s] if s >= 0 else c
            worker._frames.append(new_frame)
            return _CALL

        return step

    def _compile_ret(self, inst: Ret):
        opcode = inst.opcode
        value_op = inst.value
        iv, cv = self._bind(value_op) if value_op is not None else (-1, None)
        has_value = value_op is not None

        def step(worker, frame, cycle):
            worker.stats.ops_executed[opcode] += 1
            if has_value:
                regs = frame.regs
                value = regs[iv] if iv >= 0 else cv
            else:
                value = None
            frames = worker._frames
            frames.pop()
            if not frames:
                worker.done = True
                worker.system.worker_finished(worker)
                worker.return_value = value
                return _RET
            caller = frames[-1]
            if value is not None:
                caller.regs[frame.ret_slot] = value
            caller.cursor += 1
            return _RET

        return step


def _lazy(table: list, index: int, render, *how):
    """A stand-in for ``table[index]`` that renders ``render(*how)`` on
    its first call, puts it in its own place and runs it: only code a run
    reaches is ever generated."""

    def first(*args):
        function = table[index] = render(*how)
        return function(*args)

    return first


def specialized_for(function: Function) -> SpecializedProgram:
    """The (cached) specialized program for ``function``.

    The cache lives on the function object itself, so the one-time
    specialization cost is amortized across every worker, system and
    process-local run that executes the function — exactly the sharing
    DSE and fault sweeps need.
    """
    program = getattr(function, "_specialized_program", None)
    if program is None:
        program = SpecializedProgram(function, schedule_function(function))
        function._specialized_program = program  # type: ignore[attr-defined]
    return program


class SpecializedWorker(HwWorker):
    """An :class:`HwWorker` whose FSM executes generated code and closures.

    Only value plumbing and dispatch are overridden; stall categories,
    event arming, fault hooks and stats attribution are the inherited
    (bit-identical) machinery.
    """

    def __init__(
        self,
        name: str,
        function: Function,
        args,
        system: "AcceleratorSystem",
        worker_id: int = 0,
        start_cycle: int = 0,
    ) -> None:
        super().__init__(
            name, function, args, system,
            worker_id=worker_id, start_cycle=start_cycle,
        )
        # Compute-run batching (see ``tick``) is legal only when nothing
        # observes per-cycle state mid-run — no trace sink, no invariant
        # monitor, no fault injector — and the clock honours ``next_due``
        # (the event scheduler; lockstep ticks every cycle).  All four are
        # fixed before the run's first worker is built, so decide once.
        self._can_batch = (
            not self._trace
            and system.monitor is None
            and not system.injector.enabled
            and system._scheduler is not None
        )

    def _make_entry_frames(self, function: Function, args):
        program = specialized_for(function)
        if len(args) != len(function.args):
            raise SimulationError(
                f"worker {self.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        frame = SpecFrame(program, self.system)
        regs = frame.regs
        for formal, actual in zip(function.args, args):
            regs[program.slot_of(formal)] = actual
        return [frame]

    def tick(self, cycle: int) -> None:
        """One clock edge over the state's steps, with run-ahead.

        Every exit closes its cycle(s) through the inherited
        :meth:`HwWorker._retire`; what is spelled here is the step loop
        and — when no trace sink, monitor or injector is attached —
        run-ahead: after a state completes or branches, the following run
        of *pure* FSM states (ops that touch only the frame's registers,
        branches and their phi-latching edges included) executes in this
        same tick as generated runs, attributed as a batch of COMPUTE
        cycles.  Run-ahead is invisible to every other worker: pure states
        read and write nothing shared, the worker stays runnable (finite
        ``next_due``), and the batch never extends past ``max_cycles`` (so
        the cycle budget fires at the same cycle as the unbatched engines,
        also inside a register-only infinite loop).  Progress counts one
        per op executed plus one per completed state, as the interpreted
        worker does, from how far the cursor moved.
        """
        if self.done or self.hung or cycle < self.start_cycle:
            self._retire(cycle, CycleCategory.IDLE)
            return
        if cycle < self._waiting_until:
            self._retire(cycle, CycleCategory.CACHE)
            return
        injector = self._injector
        if (
            injector.enabled
            and injector.hang_pending(self, cycle)
            and not self._would_block(cycle)
        ):
            self.hung = True
            injector.hang_triggered(self)
            self._retire(cycle, CycleCategory.IDLE)
            return
        if self._pending_mem is not None:
            self._complete_memory()
        frame = self._frames[-1]
        steps = frame.steps
        first = cursor = frame.cursor
        n = len(steps)
        while cursor < n:
            outcome = steps[cursor](self, frame, cycle)
            if outcome is _RAN:
                cursor = frame.cursor
            elif outcome is _OK:
                cursor += 1
            elif outcome is _BRANCH:
                # The group moved the frame into the taken edge's target.
                progress = n - first
                state = 0
                start = frame.cursor
                break
            else:
                frame.cursor = cursor
                self.progress += cursor - first
                category = _STALL_CATEGORY.get(outcome)
                if category is None:
                    # call / ret: the closure already moved the frame.
                    category = _COMPUTE
                    self.progress += 1
                    if self._trace and not self.done:
                        self._emit_state(cycle)
                self._retire(cycle, category)
                return
        else:
            # State complete: advance within the block (one state per cycle).
            progress = n - first + 1
            state = frame.state + 1
            start = 0
        # ``state`` is the frame's next state, here or across a branch
        # edge.  Run ahead: while that state is pure (and nothing observes
        # per-cycle state), run it now as more COMPUTE cycles.
        block = frame.block
        k = 1
        if self._can_batch:
            budget = self.system.max_cycles - cycle
            run = block.runs[state]
            if run is not None and k < budget:
                regs = frame.regs
                ops = self.stats.ops_executed
                while True:
                    block, state, start, states, done = run(regs, ops, budget - k)
                    k += states
                    progress += done
                    run = block.runs[state]
                    if run is None or k >= budget:
                        break
        if state >= block.n_states:
            raise SimulationError(
                f"worker {self.name}: fell off the end of block "
                f"{block.label} (missing terminator?)"
            )
        frame.block = block
        frame.state = state
        frame.cursor = start
        frame.steps = block.states[state]
        self.progress += progress
        if self._trace:
            self._emit_state(cycle)
        self._retire(cycle, _COMPUTE, k)

    def _would_block(self, cycle: int) -> bool:
        if self._pending_mem is not None:
            return False  # completing the outstanding access is progress
        frame = self._frames[-1]
        if frame.cursor >= len(frame.steps):
            return False  # state advance is progress
        probe = frame.block.probes[frame.state][frame.cursor]
        if probe is None:
            return False
        return probe(self, frame, cycle)

    def _complete_memory(self) -> None:
        complete, addr = self._pending_mem  # type: ignore[misc]
        frame = self._frames[-1]
        complete(self, frame, addr)
        self._pending_mem = None
        frame.cursor += 1
        self.progress += 1

    def _emit_state(self, cycle: int) -> None:
        frame = self._frames[-1]
        self._sink.worker_state(
            self.name, cycle, frame.block.trace_label, frame.state
        )
