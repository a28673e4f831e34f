"""Worker-FSM specialization: each function's FSM is one generator.

The base :class:`~repro.hw.worker.HwWorker` interprets ``Instruction``
objects on every tick: a long ``isinstance`` dispatch chain, an
``id()``-keyed environment dict per operand, and a per-block-entry rebuild
of the schedule's state table.  All of that is loop-invariant — the FSM,
the operand routing and the dispatch targets are fixed the moment the
pipeline is compiled — so ``engine="specialized"`` renders each function
once, through the interpreter's IR-to-Python generator
(:class:`repro.interp.interpreter._Text`), into one Python *generator
function* (:class:`SpecializedProgram`), and a worker is one generator
object of it:

* every SSA value, global address and FIFO the function addresses is a
  Python local of the generator, bound once per worker; the FSM's
  position is where the generator stands (a block cursor ``at`` and the
  line it is parked on), so nothing is written back between two ticks;
* a tick is one resumption: ``cycle = now = yield`` parks the worker, and
  the event clock's ``send(cycle)`` picks it up.  Pure ops are their
  expression forms from the shared op table (:data:`repro.interp.ops.FORMS`:
  same values, same error messages, same rounding as every other
  engine), a taken edge is one parallel copy of the target's phis, a load
  or store issues, parks on the cache and completes inline, and
  produce/consume/join retry in a loop over the inherited blocking-op
  protocol (``HwWorker._push/_pop/_join``).  Cycles close in the lines
  the timing rule is spelled in (:func:`repro.hw.worker.retire_lines`);
* a run of register-only FSM states — which cannot park — runs without a
  yield while nothing observes the worker, attributed as one batch of
  COMPUTE cycles that never passes ``max_cycles``.  Under a trace sink or
  a fault injector the same generator parks at every state;
* a call is ``yield from`` the callee's generator, which takes a level of
  Python's stack per call, so every engine stops a call chain at
  :data:`repro.hw.worker.MAX_CALL_DEPTH`.

Forks and calls are dynamic and every cold design is a new program, so
the unit rendered is one function, not one design: a text is rendered
when a worker first runs the function and memoised on it.

Everything observable is kept **bit-identical** to the event engine:
``WorkerStats``, stall attribution, telemetry spans/states and the
watchdog's wait-for graph.  What a parked generator stands on — its
function, block, state and op, and its registers — is read back from the
generator's frame (``SpecializedWorker._frames``) by
:meth:`HwWorker._would_block` and the watchdog, so nothing is published
on the hot path.  The differential suite in
``tests/test_specialized_engine.py`` pins this against both oracles.
"""

from __future__ import annotations

import re
from collections import Counter

from ..errors import SimulationError
from ..interp.interpreter import MALLOC_NAMES, _indent, _Text
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
from ..rtl.schedule import schedule_function
from ..telemetry.events import CycleCategory
from .worker import MAX_CALL_DEPTH, STALLED, HwWorker, call_too_deep, retire_lines

_COMPUTE = CycleCategory.COMPUTE

#: Instruction classes whose steps touch only the worker's registers; a
#: branch and its phi-latching edge are register-only control flow.
_REGISTER_ONLY = (*FORMS, Phi, Jump, CondBranch)

#: A line that parks the generator, and the site it parks at.
_PARKS = re.compile(r"yield (\d+)$|yield from .*, worker, (\d+)", re.M)


def _raise(message: str):
    raise SimulationError(message)


def _malloc(memory, size):
    return memory.malloc(int(size), site=-4)


def _fell_off(worker: str, block: str):
    _raise(f"worker {worker}: fell off the end of block {block} (missing terminator?)")


def _call(function: Function, worker, caller: int, depth: int, *args):
    """The generator of ``function`` called from site ``caller`` of a
    generator ``depth`` calls deep."""
    if depth >= MAX_CALL_DEPTH:
        raise call_too_deep(worker, function)
    return specialized_for(function).generator(worker, caller, depth + 1, *args)


class _Position:
    """Where one parked generator's FSM stands, as the interpretive
    worker's frame says it: the watchdog reads ``function``,
    :meth:`HwWorker._would_block` the op at ``cursor`` of
    ``state_ops[state]`` and its operands (:meth:`value`)."""

    __slots__ = ("function", "block", "state", "cursor", "state_ops", "pending",
                 "_locals", "_names")

    def __init__(self, program: "SpecializedProgram", frame) -> None:
        self.function = program.function
        self.block, self.state, self.cursor, self.pending = program.sites[frame.f_lineno]
        self.state_ops = program.tables[self.block]
        self._locals = frame.f_locals
        self._names = program.names

    def value(self, v):
        return v.value if isinstance(v, Constant) else self._locals[self._names[v]]


class SpecializedProgram:
    """One function's FSM schedule rendered as one generator function
    ``generator(worker, caller, depth, *args)`` (shared by every worker
    and system running the function).

    ``caller`` is the site a call came from, 0 for a worker's own
    function, and ``depth`` how many calls deep it runs, 1 for that one.
    ``sites`` maps the line a parked generator stands on to ``(block,
    state, cursor, pending)``: the op of ``tables[block][state]`` it runs
    next, and whether a memory access is outstanding before it.
    """

    def __init__(self, function: Function) -> None:
        # Imported here: repro.analysis imports repro.interp.
        from ..analysis.cfg import reverse_postorder

        self.function = function
        schedule = schedule_function(function)
        self.blocks = reverse_postorder(function)
        self.tables = {block: schedule.block_schedule(block).states for block in self.blocks}
        #: Every runtime value's local: arguments, results, then the
        #: globals and channels the text names.
        self.names: dict = {
            value: f"v{i}" for i, value in enumerate(
                [*function.args, *(inst for block in function.blocks
                                   for inst in block.instructions)])
        }
        #: ``pure[block][state]``: every op of the state reads and writes
        #: only the worker's registers (a run of such states is invisible
        #: to every other worker).
        self.pure = {
            block: [all(isinstance(i, _REGISTER_ONLY) for i in row) for row in table]
            for block, table in self.tables.items()
        }
        self.sites: dict[int, tuple] = {}
        self.generator = self._render()

    def _render(self):
        function, tables, names = self.function, self.tables, self.names
        index = {block: i for i, block in enumerate(self.blocks)}
        text = _Text(self._bind, None)
        text.local = names
        text.ns["program"] = self
        ref, use = text.ref, text.use
        to_int = ref(int)
        category = {c: ref(c) for c in CycleCategory}
        compute_lines = retire_lines(text, _COMPUTE, "now - cycle")
        cache_lines = retire_lines(text, CycleCategory.CACHE)
        leads = {block: _entry_cursor(table) for block, table in tables.items()}
        pure = self.pure
        sites: list[tuple] = []
        labels: dict[BasicBlock, str] = {}
        opcodes: dict[str, str] = {}
        fifos: dict = {}  # channel -> its local

        def site(block, state: int, cursor: int, pending: bool = False) -> int:
            sites.append((block, state, cursor, pending))
            return len(sites) - 1

        def park(block, state: int, cursor: int, pending: bool = False) -> str:
            return f"cycle = now = yield {site(block, state, cursor, pending)}"

        def opcode(op: str) -> str:
            if op not in opcodes:
                opcodes[op] = ref(op)
            return opcodes[op]

        def flush(counts: Counter) -> list[str]:
            return [f"ops[{opcode(op)}] += {n}" for op, n in counts.items() if n]

        def close(block, state: int, inline: bool = False) -> list[str]:
            """Close cycles ``[cycle, now)`` as COMPUTE, the FSM standing at
            ``state`` of ``block`` (what a trace is told): inline where every
            pass through runs it, else one call of ``_close``."""
            if block not in labels:
                labels[block] = ref(f"{block.parent.name}:{block.short_name()}")
            if not inline:
                return [f"close(cycle, now - cycle, {labels[block]}, {state})"]
            return [f"if trace: sink.worker_state(name, cycle, {labels[block]}, {state})",
                    *compute_lines]

        def advance(block, state: int, counts: Counter) -> list[str]:
            """Count ``counts`` (the ops run since the last count) and move
            on to ``state`` of ``block`` one cycle later: a pure state runs
            on, parking only at the budget or under an observer; any other
            state starts a tick."""
            out = flush(counts)
            counts.clear()
            if state >= len(tables[block]):
                return [*out, f"{ref(_fell_off)}(name, {ref(block.short_name())})"]
            cursor = leads[block] if state == 0 else 0
            if pure[block][state]:
                parked = [*close(block, state), park(block, state, cursor)]
                return [*out, "now += 1", "if now >= limit:", *_indent(parked)]
            return [*out, "now += 1", *close(block, state, True), park(block, state, cursor)]

        def edge(block, target, counts: Counter) -> list[str]:
            phis = target.phis()
            if phis:
                counts["phi"] += len(phis)
            out = flush(counts)
            if phis:
                counts["phi"] -= len(phis)
                sources = [use(phi.incoming_for(block)) for phi in phis]
                out.append(f"{', '.join(names[phi] for phi in phis)} = {', '.join(sources)}")
            out += advance(target, 0, {})
            out.append(f"at = {index[target]}")
            return out + ["continue"] * (index[target] <= index[block])

        def queue(inst) -> tuple[str, str]:
            """The FIFO local and queue index text of a produce/consume."""
            channel = inst.channel
            if channel not in fifos:
                fifos[channel] = names[channel] = f"v{len(names)}"
            n_channels = channel.n_channels
            if isinstance(inst, ProduceBroadcast):
                return fifos[channel], "None"
            if inst.worker_select is None:
                return fifos[channel], f"worker_id % {n_channels}"
            return fifos[channel], f"{to_int}({use(inst.worker_select)}) % {n_channels}"

        def retry(call: str, stalled, block, state: int, j: int, op: str) -> list[str]:
            """``while call:`` a stalled op retires its cycle and retries
            at the next wake, counted again (the protocol took it back)."""
            return [f"while {call}:", f" retire(cycle, {category[stalled]})",
                    " " + park(block, state, j), f" ops[{op}] += 1"]

        def fail(message: str) -> str:
            return f"{ref(_raise)}({ref(message)})"

        def render_block(block) -> list[str]:
            table = tables[block]
            text.body = body = []
            counts: Counter = Counter()
            for s, row in enumerate(table):
                for j in range(leads[block] if s == 0 else 0, len(row)):
                    inst = row[j]
                    cls = type(inst)
                    counts[inst.opcode] += 1
                    if cls in FORMS:
                        text.pure(inst)
                        continue
                    if cls is Phi:  # the edge (or the function's start) latched it
                        continue
                    if cls is Jump:
                        body += edge(block, inst.target, counts)
                        return body
                    if cls is CondBranch:
                        body.append(f"if {use(inst.cond)}:")
                        body += _indent(edge(block, inst.if_true, counts))
                        body.append("else:")
                        body += _indent(edge(block, inst.if_false, counts))
                        return body
                    body += flush(counts)
                    counts.clear()
                    op = opcode(inst.opcode)
                    if cls is Load or cls is Store:
                        write = cls is Store
                        body += [
                            f"addr = {to_int}({use(inst.pointer)})",
                            f"worker._waiting_until = cache.access(addr, {write}, cycle)",
                            f"stats.{'stores' if write else 'loads'} += 1",
                            *cache_lines,
                            park(block, s, j, True),
                        ]
                        values = [use(inst.value), "addr"] if write else ["addr"]
                        text.body = inline = []
                        text.access(Memory, inst, values)
                        text.body = body
                        own = (f"memory.store(addr, {ref(inst.value.type)}, {values[0]})"
                               if write else
                               f"{names[inst]} = memory.load(addr, {ref(inst.type)})")
                        body += ["if plain:", *_indent(inline), "else:", " " + own]
                    elif cls is Produce or cls is ProduceBroadcast:
                        fifo, where = queue(inst)
                        body += retry(f"push({op}, {fifo}, {where}, {use(inst.value)}, cycle)",
                                      CycleCategory.FIFO_FULL, block, s, j, op)
                    elif cls is Consume:
                        fifo, where = queue(inst)
                        body += retry(f"({names[inst]} := pop({op}, {fifo}, {where}, cycle))"
                                      f" is {ref(STALLED)}",
                                      CycleCategory.FIFO_EMPTY, block, s, j, op)
                    elif cls is ParallelJoin:
                        body += retry(f"join({op}, {inst.loop_id}, cycle)",
                                      CycleCategory.JOIN, block, s, j, op)
                    elif cls is StoreLiveout:
                        body.append(f"liveouts[{inst.liveout_id}] = {use(inst.value)}")
                    elif cls is RetrieveLiveout:
                        lid = inst.liveout_id
                        body.append(f"if {lid} not in liveouts: "
                                    f"{fail(f'liveout #{lid} never stored')}")
                        text.define(inst, f"liveouts[{lid}]")
                    elif cls is ParallelFork:
                        liveins = ", ".join(use(v) for v in inst.liveins)
                        body.append(f"system.fork_worker({ref(inst)}, [{liveins}], cycle)")
                    elif cls is Alloca:
                        text.define(inst, "memory.alloc_object("
                                          f"{ref(inst.allocated_type)}, site=-2)")
                    elif cls is Call and inst.callee.name in MALLOC_NAMES:
                        size = use(inst.args[0])
                        text.define(inst, f"{ref(_malloc)}(memory, {size})")
                    elif cls is Call and not inst.callee.is_declaration:
                        # The call's cycle, the callee's ticks, then the
                        # return's cycle; the caller stands on the call.
                        callee = inst.callee
                        args = "".join(f", {use(a)}" for a in inst.args)
                        here = site(block, s, j)
                        body += ["now += 1", *close(callee.entry, 0),
                                 f"{names[inst]}, cycle = yield from "
                                 f"{ref(_call)}({ref(callee)}, worker, {here}, depth{args})",
                                 "now = cycle + 1", *close(block, s), park(block, s, j + 1)]
                    elif cls is Ret:
                        value = "None" if inst.value is None else use(inst.value)
                        body += ["if not caller:", " worker.done = True",
                                 " system.worker_finished(worker)",
                                 f" worker.return_value = {value}",
                                 f" retire(cycle, {category[_COMPUTE]})", " return",
                                 f"return {value}, cycle"]
                        return body
                    elif cls is Call:
                        body.append(fail(f"call to undefined @{inst.callee.name} in hardware"))
                    else:  # pragma: no cover - malformed IR
                        body.append(fail(f"worker cannot execute opcode {inst.opcode}"))
                body += advance(block, s + 1, counts)
                if s + 1 == len(table):
                    return body
            return body + advance(block, 0, counts)  # no states at all

        entry = function.entry
        start = [park(entry, 0, 0)]  # site 0: a call's site is never 0
        lead = leads[entry]
        if lead:  # entered from nowhere, its phis run as counted no-ops
            start.append(f"ops[{opcode('phi')}] += {lead}")
        body = [*start, f"at = {index[entry]}", "while True:"]
        for block in self.blocks:  # each block's lines indented once, by two
            body.append(f" if at == {index[block]}:")
            body += ["  " + line for line in render_block(block)]
        text.body = [*self._prologue(text, body, fifos), *body]
        params = ", ".join(names[arg] for arg in function.args)
        generator = text.function(f"worker, caller, depth{', ' if params else ''}{params}")
        lines, line, at = "\n".join(text.body), 2, 0  # body[0] is line 2
        for match in _PARKS.finditer(lines):
            line += lines.count("\n", at, match.start())
            at = match.start()
            self.sites[line] = sites[int(match.group(1) or match.group(2))]
        return generator

    def _bind(self, value):
        """The text's ``(key, const)``: a runtime value is its own key, a
        global address a local the prologue binds."""
        if isinstance(value, Constant):
            return None, value.value
        if isinstance(value, GlobalVariable) and value not in self.names:
            self.names[value] = f"v{len(self.names)}"
        return value, None

    def _prologue(self, text: _Text, body: list[str], fifos: dict) -> list[str]:
        """What a worker binds once, when its generator starts: each
        binding ``body`` (or a binding kept before it) reads."""
        ref = text.ref
        binds = [
            ("system", "system = worker.system"), ("stats", "stats = worker.stats"),
            ("ops", "ops = stats.ops_executed"), ("cache", "cache = worker.cache"),
            ("push", "push = worker._push"), ("pop", "pop = worker._pop"),
            ("join", "join = worker._join"), ("retire", "retire = worker._retire"),
            ("close", "close = worker._close"), ("liveouts", "liveouts = system.liveout_regs"),
            ("name", "name = worker.name"), ("limit", "limit = worker._limit"),
            ("trace", "trace = worker._trace"), ("sink", "sink = worker._sink"),
            ("worker_id", "worker_id = worker.worker_id"), ("memory", "memory = system.memory"),
            ("plain", f"plain = {ref(type)}(memory) is {ref(Memory)}"),
            ("plain", f"if plain: {buffer_line(ref)}"),
            *((self.names[g], f"{self.names[g]} = system.global_addresses[{ref(g.name)}]")
              for g in self.names if isinstance(g, GlobalVariable)),
            *((local, f"{local} = system.fifo_for({ref(channel)})")
              for channel, local in fifos.items()),
        ]
        read = "\n".join(body)
        kept = []
        for name, line in reversed(binds):
            if name in read:  # a false match binds a local nothing reads
                kept.append(line)
                read += line
        return kept[::-1]


def _entry_cursor(table: list) -> int:
    """The leading phis of a block's state 0, which an edge latches."""
    ops0 = table[0] if table else []
    skip = 0
    while skip < len(ops0) and type(ops0[skip]) is Phi:
        skip += 1
    return skip


def specialized_for(function: Function) -> SpecializedProgram:
    """The (cached) specialized program for ``function``.

    The cache lives on the function object itself, so the one-time
    rendering cost is amortized across every worker, system and
    process-local run that executes the function — exactly the sharing
    DSE and fault sweeps need.
    """
    program = getattr(function, "_specialized_program", None)
    if program is None:
        program = SpecializedProgram(function)
        function._specialized_program = program  # type: ignore[attr-defined]
    return program


def _render_close():
    """:meth:`SpecializedWorker._close`, from the timing rule's lines."""
    text = _Text(None, None)
    text.body += ["if self._trace: self._sink.worker_state(self.name, cycle, label, state)",
                  *retire_lines(text, _COMPUTE, "k", w="self")]
    return text.function("self, cycle, k, label, state")


class SpecializedWorker(HwWorker):
    """An :class:`HwWorker` whose FSM is a generator of its function's
    :class:`SpecializedProgram`.

    The event clock resumes the generator itself (``resume`` is its
    ``send``); stall categories, event arming, fault hooks and stats
    attribution are the inherited machinery or rendered from its lines.
    """

    def _enter(self, function: Function, args) -> None:
        if len(args) != len(function.args):
            raise SimulationError(
                f"worker {self.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        injector = self._injector
        # Run-ahead is legal only when nothing observes per-cycle state
        # mid-run — no trace sink, no fault injector — and never past the
        # cycle budget (so it fires at the same cycle as the unbatched
        # engines, also inside a register-only infinite loop).
        observed = self._trace or injector.enabled
        self._limit = 0 if observed else self.system.max_cycles
        self._gen = specialized_for(function).generator(self, 0, 1, *args)
        next(self._gen)  # bind, and park at the function's entry
        self.resume = self._resume_unless_hung if injector.enabled else self._gen.send

    #: ``_close(cycle, k, label, state)`` closes cycles ``[cycle, cycle +
    #: k)`` as COMPUTE, the FSM now at ``state`` of the block ``label``
    #: names (the state a trace is told).
    _close = _render_close()

    def _resume_unless_hung(self, cycle: int) -> None:
        """An injected hang freezes the worker at a tick that would make
        progress; otherwise the generator runs."""
        injector = self._injector
        if injector.hang_pending(self, cycle) and not self._would_block(cycle):
            self.hung = True
            injector.hang_triggered(self)
            self._retire(cycle, CycleCategory.IDLE)
            return
        self._gen.send(cycle)

    @property
    def _frames(self) -> list[_Position]:
        """The call stack, outermost first, read off the parked generators."""
        frames, gen = [], self._gen
        while gen is not None and gen.gi_frame is not None:
            frames.append(_Position(gen.gi_frame.f_globals["program"], gen.gi_frame))
            gen = gen.gi_yieldfrom
        return frames

    @property
    def _pending_mem(self):
        frames = self._frames
        return True if frames and frames[-1].pending else None

    def _value(self, frame: _Position, v):
        return frame.value(v)
