"""Worker-FSM specialization: compile schedules into Python closures.

The base :class:`~repro.hw.worker.HwWorker` interprets ``Instruction``
objects on every tick: a long ``isinstance`` dispatch chain, an
``id()``-keyed environment dict per operand, and a per-block-entry rebuild
of the schedule's state table.  All of that is loop-invariant — the FSM,
the operand routing and the dispatch targets are fixed the moment the
pipeline is compiled — so ``engine="specialized"`` resolves it once per
function:

* every FSM state becomes a flat list of *step closures*; the per-opcode
  dispatch happens here, at build time, never on the hot path;
* every SSA value gets a slot in a flat ``regs`` list (constants are baked
  into the closures, globals are filled in at frame construction);
* every pure op's semantics are bound once from the shared op table
  (:data:`repro.interp.ops.PURE_OPS`: same functions, same error
  messages, same rounding as every other engine);
* branch edges pre-resolve the target's phi moves, so a taken edge is a
  batch of register copies instead of a phi walk.

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

from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..interp.interpreter import MALLOC_NAMES
from ..interp.ops import PURE_OPS, bind_gep
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    GEP,
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
_REGISTER_ONLY = (*PURE_OPS, Phi, Jump, CondBranch)


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
    """One basic block compiled to per-state step-closure lists.

    ``states[s]`` holds the step closures issued in FSM state ``s`` and
    ``probes[s]`` the aligned side-effect-free would-block probes (None
    for ops that can never stall).  ``entry_cursor`` is the number of
    leading phi steps in state 0, skipped when the block is entered via a
    branch edge (the edge already latched the phi registers).
    """

    __slots__ = ("label", "trace_label", "n_states", "states", "probes",
                 "pure", "entry_cursor")

    def __init__(self, label: str, trace_label: str, n_states: int) -> None:
        self.label = label
        self.trace_label = trace_label
        self.n_states = n_states
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
        self.entry_cursor = 0


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
    """One function's FSM schedule compiled into closures (shared by all
    workers and systems running that function)."""

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
        for block in function.blocks:
            bs = schedule.block_schedule(block)
            self._blocks[id(block)] = SpecBlock(
                block.short_name(),
                f"{function.name}:{block.short_name()}",
                bs.n_states,
            )
        self.entry = self._blocks[id(function.entry)]
        for block in function.blocks:
            self._compile_block(block, schedule.block_schedule(block))
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

    # -- block compilation --------------------------------------------------

    def _compile_block(self, block: BasicBlock, bs) -> None:
        sb = self._blocks[id(block)]
        table = bs.states  # built once, at specialize time
        for state_ops in table:
            steps: list = []
            probes: list = []
            for inst in state_ops:
                step, probe = self._compile_inst(inst, block)
                steps.append(step)
                probes.append(probe)
            sb.states.append(steps)
            sb.probes.append(probes)
            sb.pure.append(
                all(isinstance(inst, _REGISTER_ONLY) for inst in state_ops)
            )
        sb.pure.append(False)
        # Leading phis of state 0 are latched by the incoming edge; a
        # branch entry starts past them (function entry executes them as
        # no-op steps, matching the interpreted worker's cursor rule).
        ops0 = table[0] if table else []
        skip = 0
        while skip < len(ops0) and isinstance(ops0[skip], Phi):
            skip += 1
        sb.entry_cursor = skip

    def _compile_edge(self, from_block: BasicBlock, target: BasicBlock):
        """Closure applying one CFG edge: latch the target's phis from
        this edge's incoming values (fetched atomically, before any phi
        register is overwritten), then enter the target block."""
        sb = self._blocks[id(target)]
        phis = target.phis()
        binds = [self._bind(phi.incoming_for(from_block)) for phi in phis]
        slots = [self._slots[id(phi)] for phi in phis]
        n_phis = len(phis)

        def edge(worker: HwWorker, frame: SpecFrame) -> None:
            regs = frame.regs
            if n_phis:
                values = [regs[s] if s >= 0 else c for s, c in binds]
                for slot, value in zip(slots, values):
                    regs[slot] = value
                worker.stats.ops_executed["phi"] += n_phis
            frame.block = sb
            frame.state = 0
            frame.steps = sb.states[0]
            frame.cursor = sb.entry_cursor

        return edge

    # -- instruction compilation --------------------------------------------

    def _compile_inst(self, inst: Instruction, block: BasicBlock):
        """Return ``(step, probe)`` closures for one scheduled op."""
        opcode = inst.opcode
        if isinstance(inst, GEP):
            return self._compile_gep(inst), None
        if type(inst) in PURE_OPS:
            return self._compile_pure(inst), None
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
        if isinstance(inst, Jump):
            edge = self._compile_edge(block, inst.target)

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                edge(worker, frame)
                return _BRANCH

            return step, None
        if isinstance(inst, CondBranch):
            ic, cc = self._bind(inst.cond)
            edge_true = self._compile_edge(block, inst.if_true)
            edge_false = self._compile_edge(block, inst.if_false)

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                cond = frame.regs[ic] if ic >= 0 else cc
                (edge_true if cond else edge_false)(worker, frame)
                return _BRANCH

            return step, None
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
        if isinstance(inst, Phi):
            # Only reached when a frame starts at the function entry (the
            # branch-entry cursor skips latched phis): count and move on,
            # exactly like the interpreted worker's phi case.
            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                return _OK

            return step, None

        def step(worker, frame, cycle):  # pragma: no cover - malformed IR
            worker.stats.ops_executed[opcode] += 1
            raise SimulationError(f"worker cannot execute opcode {opcode}")

        return step, None

    def _compile_pure(self, inst: Instruction):
        """Step for any op-table instruction other than GEP: its bound
        ``f(*operand_values)`` over the register file."""
        dst = self._slots[id(inst)]
        opcode = inst.opcode
        f = PURE_OPS[type(inst)][1](inst)
        binds = [self._bind(v) for v in inst.operands]
        if len(binds) == 1:  # casts
            ((ia, ca),) = binds

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                regs = frame.regs
                regs[dst] = f(regs[ia] if ia >= 0 else ca)
                return _OK

            return step
        if len(binds) == 2:  # binop/icmp/fcmp: the hot shape
            (ia, ca), (ib, cb) = binds

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                regs = frame.regs
                regs[dst] = f(
                    regs[ia] if ia >= 0 else ca, regs[ib] if ib >= 0 else cb
                )
                return _OK

            return step

        def step(worker, frame, cycle):
            worker.stats.ops_executed[opcode] += 1
            regs = frame.regs
            regs[dst] = f(*[regs[s] if s >= 0 else c for s, c in binds])
            return _OK

        return step

    def _compile_gep(self, inst: GEP):
        dst = self._slots[id(inst)]
        opcode = inst.opcode
        ibase, cbase = self._bind(inst.base)
        # ``base + const + Σ coef·idx``: the pointee-type walk happens
        # once, in the shared op table.
        const_off, terms = bind_gep(inst)
        indices = inst.indices
        live = [(coef, self._bind(indices[pos])[0]) for coef, pos in terms]
        if len(live) == 1:
            coef0, s0 = live[0]

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                regs = frame.regs
                base = regs[ibase] if ibase >= 0 else cbase
                regs[dst] = (
                    int(base) + coef0 * int(regs[s0]) + const_off
                ) & 0xFFFFFFFF
                return _OK

            return step
        if len(live) == 2:
            coef0, s0 = live[0]
            coef1, s1 = live[1]

            def step(worker, frame, cycle):
                worker.stats.ops_executed[opcode] += 1
                regs = frame.regs
                base = regs[ibase] if ibase >= 0 else cbase
                regs[dst] = (
                    int(base)
                    + coef0 * int(regs[s0])
                    + coef1 * int(regs[s1])
                    + const_off
                ) & 0xFFFFFFFF
                return _OK

            return step

        def step(worker, frame, cycle):
            worker.stats.ops_executed[opcode] += 1
            regs = frame.regs
            addr = int(regs[ibase] if ibase >= 0 else cbase) + const_off
            for coef, slot in live:
                addr += coef * int(regs[slot])
            regs[dst] = addr & 0xFFFFFFFF
            return _OK

        return step

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
    """An :class:`HwWorker` whose FSM executes pre-compiled step closures.

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
        """One clock edge over step closures, with run-ahead.

        Every exit closes its cycle(s) through the inherited
        :meth:`HwWorker._retire`; what is spelled here is the step loop
        and — when no trace sink, monitor or
        injector is attached — run-ahead: after a state completes or
        branches, the following run of *pure* FSM states (ops that touch
        only the frame's registers, branches and their phi-latching edges
        included) executes in this same tick, attributed as a batch of
        COMPUTE cycles.  Run-ahead is invisible to every other worker:
        pure states read and write nothing shared, the worker stays
        runnable (finite ``next_due``), and the batch never extends past
        ``max_cycles`` (so the cycle budget fires at the same cycle as
        the unbatched engines, also inside a register-only infinite loop).
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
        cursor = frame.cursor
        n = len(steps)
        executed = 0
        while cursor < n:
            outcome = steps[cursor](self, frame, cycle)
            if outcome is _OK:
                cursor += 1
                frame.cursor = cursor
                executed += 1
                continue
            if outcome is _BRANCH:
                # The edge moved the frame into its target block.
                state = 0
                start = frame.cursor
                break
            self.progress += executed
            category = _STALL_CATEGORY.get(outcome)
            if category is None:
                # call / ret: the closure already moved the frame.
                category = CycleCategory.COMPUTE
                self.progress += 1
                if self._trace and not self.done:
                    self._emit_state(cycle)
            self._retire(cycle, category)
            return
        else:
            # State complete: advance within the block (one state per cycle).
            state = frame.state + 1
            start = 0
        # ``state`` is the frame's next state, here or across a branch
        # edge.  Run ahead: while that state is pure (and nothing observes
        # per-cycle state), execute it now as one more COMPUTE cycle.
        block = frame.block
        progress = executed + 1
        k = 1
        if self._can_batch:
            pure = block.pure
            budget = self.system.max_cycles - cycle
            while pure[state] and k < budget:
                steps = block.states[state]
                for i in range(start, len(steps)):
                    if steps[i](self, frame, cycle) is _BRANCH:
                        progress += i + 1 - start
                        block = frame.block
                        pure = block.pure
                        state = 0
                        start = frame.cursor
                        break
                else:
                    progress += len(steps) - start + 1
                    state += 1
                    start = 0
                k += 1
        if state >= block.n_states:
            raise SimulationError(
                f"worker {self.name}: fell off the end of block "
                f"{block.label} (missing terminator?)"
            )
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
