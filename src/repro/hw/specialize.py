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
* every place a tick can start — a state's first op, the op after a load,
  store or call, a FIFO or join op that retries — is one generated
  function (a *landing*), rendered on first use through the interpreter's
  IR-to-Python generator (:class:`repro.interp.interpreter._Text`).  It
  runs to the tick's exit: pure ops as their expression forms from the
  shared op table (:data:`repro.interp.ops.FORMS`: same values, same
  error messages, same rounding as every other engine), a taken edge as
  one parallel copy of the target's phi registers, load/store issue, and
  produce/consume/join/memory completion through the inherited
  :class:`~repro.hw.worker.HwWorker` methods; it closes its cycles with
  the lines the timing rule is spelled in
  (:func:`repro.hw.worker.retire_lines`);
* a run of register-only FSM states — which cannot park — is one
  generated function (``SpecBlock.runs``) that an exit into it calls to
  run ahead.

Everything observable is kept **bit-identical** to the event engine:
``WorkerStats``, stall attribution, telemetry spans/states and the
watchdog's wait-for-graph attributes (``_frames[*].function``,
``last_category``).  FIFO and join ops call the inherited blocking-op
protocol, and a memory op completes through ``_complete_memory``, so the
fault hooks, the ``ops_executed`` roll-back of a blocked op, the
``_blocked_*`` bookkeeping and the trace recorder's taps are literally the
same code.  The differential suite in ``tests/test_specialized_engine.py``
pins this against both oracles.

The clock loop is unchanged: a specialized system runs under the same
:class:`~repro.hw.engine.EventScheduler` as ``engine="event"``.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..interp.interpreter import MALLOC_NAMES, _Text, escapes
from ..interp.memory import Memory, buffer_line
from ..interp.ops import FORMS
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    Alloca,
    Call,
    CondBranch,
    Consume,
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
from .worker import STALLED, HwWorker, retire_lines

if TYPE_CHECKING:  # pragma: no cover
    from .system import AcceleratorSystem

_COMPUTE = CycleCategory.COMPUTE

#: Instruction classes whose steps touch only the frame's registers; a
#: branch and its phi-latching edge are register-only control flow.
_REGISTER_ONLY = (*FORMS, Phi, Jump, CondBranch)

#: Ops a frame's cursor stays on when they stall (the retry's landing).
_RETRIED = (Produce, ProduceBroadcast, Consume, ParallelJoin)


def _raise(message: str):
    raise SimulationError(message)


def _malloc(memory, size):
    return memory.malloc(int(size), site=-4)


def _fell_off(worker, block: "SpecBlock"):
    _raise(f"worker {worker.name}: fell off the end of block "
           f"{block.label} (missing terminator?)")


class SpecBlock:
    """One basic block compiled to landings and runs.

    ``table[s]`` holds the ops of FSM state ``s``; ``states[s][i]`` is the
    landing at op ``i`` of that state wherever a frame's cursor can stand
    between two ticks (None elsewhere; ``i`` may be the state's length,
    after a trailing load, store or call).  ``runs[s]`` is the generated
    run-ahead from state ``s`` (None unless ``pure[s]``).
    ``entry_cursor`` is the number of leading phi ops in state 0, skipped
    when the block is entered via a branch edge (the edge already latched
    the phi registers).
    """

    __slots__ = ("label", "trace_label", "n_states", "table", "states",
                 "pure", "runs", "entry_cursor")

    def __init__(self, label: str, trace_label: str, table) -> None:
        self.label = label
        self.trace_label = trace_label
        self.n_states = len(table)
        self.table = table
        self.states: list[list] = []
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

    @property
    def state_ops(self) -> list:
        """The ops of each FSM state of the block (what
        :meth:`HwWorker._would_block` reads)."""
        return self.block.table


def _render_run_ahead():
    """``run_ahead(worker, frame, cycle, block, state, start)``: the exit
    of a tick whose frame moves to pure state ``state`` of ``block`` at op
    ``start``.

    When nothing observes per-cycle state, the following run of pure
    states executes now as generated runs, attributed as a batch of
    COMPUTE cycles; the batch never extends past ``max_cycles`` (so the
    cycle budget fires at the same cycle as the unbatched engines, also
    inside a register-only infinite loop).  Then the frame stands where
    the run stopped and the cycles close.
    """
    text = _Text(None, None)
    text.body += [
        "k = 1",
        "if worker._can_batch:",
        " budget = worker.system.max_cycles - cycle",
        " if k < budget:",
        "  regs = frame.regs",
        "  ops = worker.stats.ops_executed",
        "  run = block.runs[state]",
        "  while True:",
        "   block, state, start, states = run(regs, ops, budget - k)",
        "   k += states",
        "   run = block.runs[state]",
        "   if run is None or k >= budget: break",
        f"  if state >= block.n_states: {text.ref(_fell_off)}(worker, block)",
        "frame.block = block",
        "frame.state = state",
        "frame.cursor = start",
        "frame.steps = block.states[state]",
        "if worker._trace: worker._emit_state(cycle)",
        *retire_lines(text, _COMPUTE, "k"),
    ]
    return text.function("worker, frame, cycle, block, state, start")


_run_ahead = _render_run_ahead()


class SpecializedProgram:
    """One function's FSM schedule compiled into landings and runs (shared
    by all workers and systems running that function)."""

    def __init__(self, function: Function, schedule: FunctionSchedule) -> None:
        self.function = function
        self._slots: dict[int, int] = {}  # id(arg/inst) -> register slot
        self._globals: dict[str, int] = {}  # global name -> register slot
        self.n_slots = 0
        self._blocks: dict[int, SpecBlock] = {}
        for arg in function.args:
            self._slots[id(arg)] = self._alloc()
        for block in function.blocks:
            for inst in block.instructions:
                self._slots[id(inst)] = self._alloc()
                for value in inst.operands:  # code renders lazily: slot globals now
                    if isinstance(value, GlobalVariable):
                        self._bind(value)
        for block in function.blocks:
            self._blocks[id(block)] = SpecBlock(
                block.short_name(), f"{function.name}:{block.short_name()}",
                schedule.block_schedule(block).states,
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
        """Operand descriptor ``(slot, const)``: ``regs[slot]`` when
        ``slot >= 0``, else the baked constant."""
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

    def _text(self) -> _Text:
        return _Text(self._key, lambda slot: f"regs[{slot}]")

    # -- block compilation --------------------------------------------------

    def _compile_block(self, block: BasicBlock) -> None:
        sb = self._blocks[id(block)]
        for s, state_ops in enumerate(sb.table):
            landings = {0, sb.entry_cursor if s == 0 else 0}
            for i, inst in enumerate(state_ops):
                if isinstance(inst, _RETRIED):
                    landings.add(i)
                elif isinstance(inst, (Load, Store)) or (
                    type(inst) is Call and not inst.callee.is_declaration
                ):
                    landings.add(i + 1)
            steps: list = [None] * (len(state_ops) + 1)
            for i in landings:
                steps[i] = _lazy(steps, i, self._render_landing, block, s, i)
            sb.states.append(steps)
            sb.pure.append(all(isinstance(inst, _REGISTER_ONLY) for inst in state_ops))
        sb.pure.append(False)
        sb.runs = runs = [None] * len(sb.pure)
        for s, pure in enumerate(sb.pure):
            if pure:  # a run enters state 0 from an edge, past the phis
                runs[s] = _lazy(runs, s, self._render_run, block, s)

    def _render_run(self, block: BasicBlock, first: int):
        """Generated code for the register-only FSM states from ``first``:
        that state and every following pure state of the block, a
        function ``(regs, ops, room) -> (block, state, start, states)``
        executing at most ``room`` states.

        Registers are locals, stored back only for a reader outside the
        function.  (A run stopped for ``room`` leaves its worker due at
        ``max_cycles``, where the clock raises the budget error before any
        tick, so what the states it did not reach would read is never
        read.)  ``ops_executed`` is static per exit, added once on the way
        out.
        """
        sb = self._blocks[id(block)]
        table = sb.table
        stop = first
        while sb.pure[stop]:
            stop += 1
        rows = [table[first][0 if first else sb.entry_cursor:]] + table[first + 1 : stop]
        members = {inst for row in rows for inst in row}
        closes = block.terminator in members
        text = self._text()
        body, ref = text.body, text.ref
        counts: Counter = Counter()

        def leave(out: list, counts: Counter, outcome) -> None:
            out += [f"ops[{ref(op)}] += {n}" for op, n in counts.items() if n]
            out.append(f"return {ref(outcome)}")

        def edge(target: BasicBlock, local: dict) -> list[str]:
            out: list[str] = []
            phis = target.phis()
            text.moves([(phi, phi.incoming_for(block)) for phi in phis], local, out)
            tb = self._blocks[id(target)]
            done = (tb, 0, tb.entry_cursor, len(rows))
            leave(out, counts + Counter(phi=len(phis)), done)
            return out

        for i, row in enumerate(rows):
            if i:  # out of room: stop before this state
                out: list[str] = []
                leave(out, counts, (sb, first + i, 0, i))
                body += [f"if room == {i}:", *(" " + line for line in out)]
            counts.update(inst.opcode for inst in row)
            branch = bool(row) and type(row[-1]) in (Jump, CondBranch)
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
        if not branch:  # only the last state can end with the terminator
            leave(body, counts, (sb, stop, 0, len(rows)))
        return text.function("regs, ops, room")

    def _render_landing(self, block: BasicBlock, s: int, lo: int):
        """The landing at op ``lo`` of FSM state ``s``: a function
        ``(worker, frame, cycle)`` running one tick from there to its
        exit.

        The exit is the first of: a load or store issued (a CACHE cycle;
        the frame's cursor stays on it until ``_complete_memory``), a
        produce, consume or join that stalls (the cursor stays on it), a
        call or return, and the state's end or a taken edge (a COMPUTE
        cycle, with run-ahead when the next state is pure).  A value is a
        local between two landings of the state, and stored back for a
        reader in another function.  Every op that reaches outside the
        frame sees ``ops_executed`` counted up to and including itself, as
        the blocking-op protocol's roll-back and the recorder expect.
        """
        sb = self._blocks[id(block)]
        ops = sb.table[s]
        n = len(ops)
        cuts = [i for i, step in enumerate(sb.states[s]) if step is not None and i > lo]
        text = self._text()
        body, ref, use = text.body, text.ref, text.use
        body += ["regs = frame.regs", "ops = worker.stats.ops_executed"]
        counts: Counter = Counter()
        names: dict[str, str] = {}
        to_int = ref(int)

        def flush(out: list, counts: Counter) -> None:
            for op, k in counts.items():
                if op not in names:
                    names[op] = ref(op)
                out.append(f"ops[{names[op]}] += {k}")

        def compute(out: list) -> None:
            """Close this cycle as COMPUTE, the frame already moved."""
            out.append("if worker._trace: worker._emit_state(cycle)")
            out += retire_lines(text, _COMPUTE)
            out.append("return")

        def stall(at: int, category: CycleCategory) -> list[str]:
            return [f" frame.cursor = {at}",
                    f" worker._retire(cycle, {ref(category)})", " return"]

        def advance(out: list, target: SpecBlock, state: int, start: int) -> None:
            """Exit with the frame at op ``start`` of ``target``'s ``state``."""
            if target.pure[state]:
                out.append(f"return {ref(_run_ahead)}(worker, frame, cycle, "
                           f"{ref(target)}, {state}, {start})")
            elif state >= target.n_states:
                out.append(f"{ref(_fell_off)}(worker, {ref(target)})")
            else:
                if target is not sb:
                    out.append(f"frame.block = {ref(target)}")
                out += [f"frame.state = {state}", f"frame.cursor = {start}",
                        f"frame.steps = {ref(target.states[state])}"]
                compute(out)

        def edge(target: BasicBlock, local: dict) -> list[str]:
            out: list[str] = []
            phis = target.phis()
            text.moves([(phi, phi.incoming_for(block)) for phi in phis], local, out)
            flush(out, counts + Counter(phi=len(phis)))
            tb = self._blocks[id(target)]
            advance(out, tb, 0, tb.entry_cursor)
            return out

        def queue(inst) -> tuple[str, str]:
            """:meth:`HwWorker._queue` as text: the FIFO and queue index."""
            fifo = f"worker.system.fifo_for({ref(inst.channel)})"
            n_channels = inst.channel.n_channels
            if isinstance(inst, ProduceBroadcast):
                return fifo, "None"
            if inst.worker_select is None:
                return fifo, f"worker.worker_id % {n_channels}"
            return fifo, f"{to_int}({use(inst.worker_select)}) % {n_channels}"

        def fail(message: str) -> str:
            return f"{ref(_raise)}({ref(message)})"

        for j in range(lo, n):
            if j == lo or j in cuts:  # a stretch between two landings
                end = next((c for c in cuts if c > j), n)
                # A store's value is read at completion, from its register.
                members = {op for op in ops[j:end] if type(op) is not Store}
                closes = block.terminator in members
            inst = ops[j]
            cls = type(inst)
            counts[inst.opcode] += 1
            if cls in FORMS:
                text.pure(inst, escapes(inst, members, block, closes))
                continue
            if cls is Phi:  # a phi here starts a function: its register already set
                continue
            if cls is Jump:
                body += edge(inst.target, text.local)
                return text.function("worker, frame, cycle")
            if cls is CondBranch:
                body.append(f"if {use(inst.cond)}:")
                body += [" " + line for line in edge(inst.if_true, dict(text.local))]
                body.append("else:")
                body += [" " + line for line in edge(inst.if_false, dict(text.local))]
                return text.function("worker, frame, cycle")
            keep = escapes(inst, members, block, closes)
            flush(body, counts)
            counts.clear()
            if cls is Load or cls is Store:
                write = cls is Store
                body.append(f"addr = {to_int}({use(inst.pointer)})")
                body += [
                    f"worker._waiting_until = worker.cache.access(addr, {write}, cycle)",
                    f"worker.stats.{'stores' if write else 'loads'} += 1",
                    f"worker._pending_mem = ({ref(self._render_completion(inst))}, addr)",
                    f"frame.cursor = {j}",
                ]
                body += retire_lines(text, CycleCategory.CACHE)
                return text.function("worker, frame, cycle")
            opcode = ref(inst.opcode)
            if cls is Produce or cls is ProduceBroadcast:
                fifo, index = queue(inst)
                value = use(inst.value)
                body.append(f"if worker._push({opcode}, {fifo}, {index}, {value}, cycle):")
                body += stall(j, CycleCategory.FIFO_FULL)
            elif cls is Consume:
                fifo, index = queue(inst)
                body += [f"got = worker._pop({opcode}, {fifo}, {index}, cycle)",
                         f"if got is {ref(STALLED)}:",
                         *stall(j, CycleCategory.FIFO_EMPTY)]
                text.define(inst, "got", keep)
            elif cls is ParallelJoin:
                body.append(f"if worker._join({opcode}, {inst.loop_id}, cycle):")
                body += stall(j, CycleCategory.JOIN)
            elif cls is StoreLiveout:
                value = use(inst.value)
                body.append(f"worker.system.liveout_regs[{inst.liveout_id}] = {value}")
            elif cls is RetrieveLiveout:
                lid = inst.liveout_id
                body += ["liveouts = worker.system.liveout_regs",
                         f"if {lid} not in liveouts: {fail(f'liveout #{lid} never stored')}"]
                text.define(inst, f"liveouts[{lid}]", keep)
            elif cls is ParallelFork:
                liveins = ", ".join(use(v) for v in inst.liveins)
                body.append(f"worker.system.fork_worker({ref(inst)}, [{liveins}], cycle)")
            elif cls is Alloca:
                text.define(inst, "worker.system.memory.alloc_object("
                                  f"{ref(inst.allocated_type)}, site=-2)", keep)
            elif cls is Call and inst.callee.name in MALLOC_NAMES:
                size = use(inst.args[0])
                text.define(inst, f"{ref(_malloc)}(worker.system.memory, {size})", keep)
            elif cls is Call and not inst.callee.is_declaration:
                callee = inst.callee
                program = specialized_for(callee)
                args = [use(a) for a in inst.args]
                body.append(f"new = {ref(SpecFrame)}({ref(program)}, worker.system, "
                            f"{self._slots[id(inst)]})")
                body += [f"new.regs[{program.slot_of(formal)}] = {value}"
                         for formal, value in zip(callee.args, args)]
                body += ["worker._frames.append(new)", f"frame.cursor = {j}"]
                compute(body)
                return text.function("worker, frame, cycle")
            elif cls is Ret:
                value = "None" if inst.value is None else use(inst.value)
                body += ["frames = worker._frames", "frames.pop()", "if frames:",
                         " caller = frames[-1]"]
                if inst.value is not None:
                    body.append(f" caller.regs[frame.ret_slot] = {value}")
                body.append(" caller.cursor += 1")
                out: list[str] = []
                compute(out)
                body += [" " + line for line in out]
                body += ["worker.done = True",
                         "worker.system.worker_finished(worker)",
                         f"worker.return_value = {value}"]
                body.append(f"worker._retire(cycle, {ref(_COMPUTE)})")
                return text.function("worker, frame, cycle")
            elif cls is Call:
                body.append(fail(f"call to undefined @{inst.callee.name} in hardware"))
            else:  # pragma: no cover - malformed IR
                body.append(fail(f"worker cannot execute opcode {inst.opcode}"))
        # The state is complete: advance within the block (one state per cycle).
        flush(body, counts)
        advance(body, sb, s + 1, 0)
        return text.function("worker, frame, cycle")

    def _render_completion(self, inst: Load | Store):
        """``(worker, regs, addr)``: the memory half of a load or store,
        run by ``_complete_memory`` once the cache has answered.  The
        stored value is read then, as the interpreted worker does.  On a
        plain :class:`Memory` the access is inline, as in the
        interpreter's text (:meth:`_Text.access`); a subclass's goes
        through its own accessor (:meth:`Memory.loader`)."""
        text = self._text()
        ref = text.ref
        load = type(inst) is Load
        values = ["addr"] if load else [text.use(inst.value), "addr"]
        type_ = inst.type if load else inst.value.type
        own = (f"memory.{'loader' if load else 'storer'}({ref(type_)})"
               f"(memory, {', '.join(reversed(values))})")
        head, text.body = text.body, [buffer_line(ref)]
        text.access(Memory, inst, values, keep=True)
        inline, text.body = text.body, []
        if load:
            text.define(inst, own, keep=True)
        else:
            text.body.append(own)
        text.body = [
            *head,
            "memory = worker.system.memory",
            f"if {ref(type)}(memory) is {ref(Memory)}:",
            *(" " + line for line in inline),
            "else:",
            *(" " + line for line in text.body),
        ]
        return text.function("worker, regs, addr")


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
    """An :class:`HwWorker` whose FSM executes generated code.

    Only value plumbing and dispatch are overridden; stall categories,
    event arming, fault hooks and stats attribution are the inherited
    (bit-identical) machinery or rendered from its lines.
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
        # Compute-run batching (``_run_ahead``) is legal only when nothing
        # observes per-cycle state mid-run — no trace sink, no fault
        # injector — and the clock honours ``next_due`` (the event
        # scheduler; lockstep ticks every cycle).  All three are fixed
        # before the run's first worker is built, so decide once.
        self._can_batch = (
            not self._trace
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
        """One clock edge: the landing at the frame's cursor.

        Every exit closes its cycle(s) in the landing's own generated
        lines (or, for a FIFO/join stall and the top-level return, through
        the inherited :meth:`HwWorker._retire`); what is spelled here is
        what no landing can know: reset, a wait woken early, an injected
        hang and the completion of an outstanding memory access.
        Run-ahead — the following run of *pure* FSM states executed in
        this same tick and attributed as a batch of COMPUTE cycles — is
        on only when no trace sink or injector is attached: pure
        states read and write nothing shared and the worker stays
        runnable (finite ``next_due``), so it is invisible to every other
        worker.
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
        frame.steps[frame.cursor](self, frame, cycle)

    def _value(self, frame: SpecFrame, v):  # a FIFO queue for _would_block
        slot, const = frame.program._bind(v)
        return const if slot < 0 else frame.regs[slot]

    def _complete_memory(self) -> None:
        complete, addr = self._pending_mem  # type: ignore[misc]
        self._pending_mem = None
        frame = self._frames[-1]
        complete(self, frame.regs, addr)
        frame.cursor += 1

    def _emit_state(self, cycle: int) -> None:
        frame = self._frames[-1]
        self._sink.worker_state(
            self.name, cycle, frame.block.trace_label, frame.state
        )
