"""Explicit-stack IR interpreter.

One executor over one explicit call stack (no Python recursion):
:meth:`Interpreter.resume` runs a *segment* at a time, straight-line
Python rendered per block (:class:`_Segments`), and a call-free loop as
one *region* over Python locals.  :meth:`Interpreter.call` runs a
function to completion that way.  A frame parks on a :class:`Consume` of
an empty channel and :meth:`~Interpreter.resume` picks it up there, which
is what lets the functional pipeline checker (:mod:`repro.pipeline.cosim`)
and the RTL co-simulation's oracle run many task interpreters round-robin.
Given static per-instruction ``costs`` (the MIPS baseline,
:mod:`repro.hw.mips_core`), the same text also adds them to a cycle
counter; a profiled run (:func:`repro.interp.profiler.profile_call`)
counts the edges it takes and the blocks its calls enter the same way.
The independent reference the texts are tested against is the lockstep
hardware worker (:class:`repro.hw.worker.HwWorker`).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Mapping

from ..errors import InterpError
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
from ..ir.module import Module
from ..ir.printer import print_declarations, print_function
from ..ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
)
from ..ir.values import Constant, GlobalVariable, Value
from .memory import Memory, buffer_line
from .ops import FORMS, code_of, compile_text, expression

#: Names treated as heap-allocation builtins when declared without a body.
MALLOC_NAMES = {"malloc"}

BLOCKED_OUTSIDE_SCHEDULER = (
    "interpreter blocked on an empty channel outside a cooperative scheduler"
)


class ChannelIO:
    """Unbounded in-order channels for *functional* pipeline execution.

    The hardware simulator has its own bounded FIFOs with cycle costs; this
    class exists so the pipeline transform can be validated for correctness
    independent of timing.
    """

    def __init__(self) -> None:
        # Deques, not lists: a deep queue (e.g. an unthrottled producer
        # ahead of a slow consumer) made ``pop(0)`` O(n) per token and
        # the whole functional run O(n^2).
        self._queues: dict[tuple[int, int], deque] = {}
        self.liveouts: dict[int, int | float] = {}

    def _queue(self, channel_id: int, index: int) -> deque:
        return self._queues.setdefault((channel_id, index), deque())

    def produce(self, channel, index: int, value) -> None:
        self._queue(channel.channel_id, index).append(value)

    def produce_broadcast(self, channel, value) -> None:
        for i in range(channel.n_channels):
            self._queue(channel.channel_id, i).append(value)

    def try_consume(self, channel, index: int):
        """Returns (True, value) or (False, None) when empty."""
        queue = self._queue(channel.channel_id, index)
        if not queue:
            return False, None
        return True, queue.popleft()

    def queue_snapshot(self) -> dict[tuple[int, int], tuple]:
        """Pending token values per non-empty ``(channel_id, index)`` queue."""
        return {key: tuple(q) for key, q in self._queues.items() if q}


#: Index recorded for a broadcast push (one log entry covers all queues).
BROADCAST_INDEX = -1


class _LoggingLiveouts(dict):
    """Live-out store that records every write with its attribution tag."""

    def __init__(self, owner: "RecordingChannelIO") -> None:
        super().__init__()
        self._owner = owner

    def __setitem__(self, key: int, value) -> None:
        self._owner.liveout_log.append((self._owner.current_tag, key, value))
        super().__setitem__(key, value)


class RecordingChannelIO(ChannelIO):
    """A :class:`ChannelIO` that logs channel traffic and live-out writes.

    The RTL co-simulator (:mod:`repro.vsim.cosim`) replays an oracle run
    and needs, per worker instance, the exact in-order sequence of tokens
    produced/consumed and live-outs written.  ``current_tag`` identifies
    the machine currently executing (the caller sets it around each
    :meth:`Interpreter.resume`); every log entry carries that tag.

    Logs:

    * ``push_log`` — ``(tag, channel_id, index, value)``; a broadcast is
      one entry with ``index == BROADCAST_INDEX``.
    * ``pop_log`` — ``(tag, channel_id, index, value)``.
    * ``liveout_log`` — ``(tag, liveout_id, value)``.

    Indices are post-modulo, exactly what the channels were keyed by.
    """

    def __init__(self) -> None:
        super().__init__()
        self.current_tag: str = "parent"
        self.push_log: list[tuple[str, int, int, int | float]] = []
        self.pop_log: list[tuple[str, int, int, int | float]] = []
        self.liveout_log: list[tuple[str, int, int | float]] = []
        self.liveouts = _LoggingLiveouts(self)

    def produce(self, channel, index: int, value) -> None:
        super().produce(channel, index, value)
        self.push_log.append(
            (self.current_tag, channel.channel_id, index, value)
        )

    def produce_broadcast(self, channel, value) -> None:
        super().produce_broadcast(channel, value)
        self.push_log.append(
            (self.current_tag, channel.channel_id, BROADCAST_INDEX, value)
        )

    def try_consume(self, channel, index: int):
        ok, value = super().try_consume(channel, index)
        if ok:
            self.pop_log.append(
                (self.current_tag, channel.channel_id, index, value)
            )
        return ok, value


class _Env(dict):
    """SSA environment of one activation, keyed by the defining value.

    A miss is a use before definition; ``__missing__`` keeps that check
    off the hit path.
    """

    __slots__ = ("function",)

    def __init__(self, function: Function) -> None:
        self.function = function

    def __missing__(self, value: Value):
        raise InterpError(
            f"use of undefined value {value.short_name()} in "
            f"@{self.function.name}"
        )


class _Frame:
    """One activation record: ``seg`` is where it resumes (set on calling
    and on parking)."""

    __slots__ = ("seg", "env", "call_inst")

    def __init__(self, function: Function, call_inst: Instruction | None) -> None:
        self.env = _Env(function)
        self.call_inst = call_inst  # instruction in the caller awaiting our result


class Interpreter:
    """Executes IR functions against a shared :class:`Memory` image."""

    def __init__(
        self,
        module: Module,
        memory: Memory | None = None,
        channel_io: ChannelIO | None = None,
        worker_id: int = 0,
        max_steps: int = 200_000_000,
        global_addresses: dict[str, int] | None = None,
        fork_handler=None,
        costs: Mapping[Instruction, int] | None = None,
        counted: list | None = None,
    ) -> None:
        """``costs`` gives every instruction of ``module`` the cycles it
        adds to ``cycles`` when it executes (phis on their edge, also
        counted in ``moves``; ``steps`` counts no phi); a ``Memory``
        subclass may advance ``cycles`` between instructions.

        ``counted`` (:func:`~repro.interp.profiler.profile_call`) receives
        each edge ``(block, target)`` and each block a call enters as it
        is rendered; ``counts[i]`` is how often the run took the i-th."""
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.channel_io = channel_io
        self.worker_id = worker_id
        self.max_steps = max_steps
        self.steps = 0
        self.cycles = 0
        self.moves = 0
        self.counts: Counter = Counter()
        self.fork_handler = fork_handler
        self._stack: list[_Frame] = []
        self._return_value: int | float | None = None
        if global_addresses is not None:
            self.global_addresses = dict(global_addresses)
        else:
            self.global_addresses = _place_globals(module, self.memory)
        self._code = _Decoder(
            module, self.global_addresses, type(self.memory), costs, counted
        )
        self._segs = _Segments(self._code)

    # -- public driving --------------------------------------------------------

    def call(self, function: Function | str, args: list[int | float]):
        """Run ``function`` to completion and return its return value."""
        self.enter(function, args)
        if not self.resume():
            raise InterpError(BLOCKED_OUTSIDE_SCHEDULER)
        return self._return_value

    def enter(self, function: Function | str, args: list[int | float]) -> None:
        """Push the call of ``function`` at its entry segment; :meth:`resume`
        runs it."""
        if isinstance(function, str):
            function = self.module.get_function(function)
        if self._stack:
            raise InterpError("interpreter is already running a call")
        if len(args) != len(function.args):
            raise InterpError(
                f"@{function.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        frame = _Frame(function, None)
        frame.env.update(zip(function.args, args))
        frame.seg = self._segs[function.entry]
        self._stack.append(frame)
        self._return_value = None

    def resume(self) -> bool:
        """Run segments and regions until the stack empties (True) or the
        frame on top parks on an empty channel (False).

        A consume starts its segment, so a parked frame resumes at the
        consume having run nothing twice, and the parked segment's steps
        are taken back: they count once, when it runs.  With no call on
        the stack there is nothing to run: True.
        """
        stack = self._stack
        if not stack:
            return True
        frame = stack[-1]
        seg = frame.seg
        limit = self.max_steps
        while True:
            n = seg[1]
            if n:  # a segment's steps count on entry (a region counts its blocks)
                steps = self.steps + n
                if steps > limit:  # run up to the limit, then stop
                    _, _, block, lo = seg
                    before, self.steps = self.steps, limit + 1
                    if _render(self._code, block, lo, lo + limit - before, None)(self, frame) is False:
                        self.steps = before  # parked on the consume it starts with
                        frame.seg = seg
                        return False
                    raise InterpError(f"exceeded max_steps={limit}")
                self.steps = steps
            following = seg[0](self, frame)
            if not following:  # the frame on top is another one, or this one parked
                if following is False:
                    self.steps -= n
                    frame.seg = seg
                    return False
                if not stack:
                    return True
                frame = stack[-1]
                following = frame.seg
            seg = following

    def _require_io(self) -> ChannelIO:
        if self.channel_io is None:
            raise InterpError("CGPA primitive executed without a ChannelIO")
        return self.channel_io


class _Decoder:
    """What one interpreter's texts are bound against: global addresses,
    ``malloc`` sites, the memory class, ``costs`` and ``counted`` keys.

    It never sees the interpreter or its memory, so no rendered namespace
    can capture them: such a reference would be a cycle, and the memory
    image would wait for the cyclic GC instead of dying with its last user.
    """

    def __init__(
        self, module: Module, global_addresses: dict[str, int], memory_type, costs,
        counted: list | None,
    ) -> None:
        self.module = module
        self.global_addresses = global_addresses
        self.memory_type = memory_type
        self.costs = costs  # rendered into segments and regions
        self.counted = counted
        self._alloc_sites: dict[int, int] | None = None

    def bind(self, value: Value):
        """``(key, const)``: the env key of a runtime value, else its constant."""
        if isinstance(value, Constant):
            return None, value.value
        if isinstance(value, GlobalVariable):
            return None, self.global_addresses[value.name]
        return value, None

    def alloc_site(self, inst: Call) -> int:
        if self._alloc_sites is None:
            self._alloc_sites = _number_malloc_sites(self.module)
        return self._alloc_sites.get(id(inst), -1)

    def count(self, key, out: list[str]) -> None:
        """In a profiled run, the line counting ``key`` (an edge
        ``(block, target)`` or a block a call enters)."""
        if self.counted is not None:
            out.append(f"interp.counts[{len(self.counted)}] += 1")
            self.counted.append(key)


def _alloca(code: _Decoder, inst: Alloca):
    type_ = inst.allocated_type
    return lambda interp: interp.memory.alloc_object(type_, site=-2)


def _store(code: _Decoder, inst: Store):
    store = code.memory_type.storer(inst.value.type)
    return lambda interp, value, addr: store(interp.memory, addr, value)


def _produce(code: _Decoder, inst: Produce):
    channel = inst.channel
    return lambda interp, select, value: interp._require_io().produce(
        channel, int(select) % channel.n_channels, value
    )


def _produce_broadcast(code: _Decoder, inst: ProduceBroadcast):
    channel = inst.channel
    return lambda interp, value: interp._require_io().produce_broadcast(channel, value)


def _consume(code: _Decoder, inst: Consume):
    """``(True, value)``, or ``(False, None)`` on an empty queue."""
    channel = inst.channel
    if inst.worker_select is None:
        return lambda interp: interp._require_io().try_consume(channel, interp.worker_id)
    return lambda interp, select: interp._require_io().try_consume(
        channel, int(select) % channel.n_channels
    )


def _store_liveout(code: _Decoder, inst: StoreLiveout):
    liveout_id = inst.liveout_id

    def store_liveout(interp, value):
        interp._require_io().liveouts[liveout_id] = value

    return store_liveout


def _retrieve_liveout(code: _Decoder, inst: RetrieveLiveout):
    liveout_id = inst.liveout_id

    def retrieve_liveout(interp):
        liveouts = interp._require_io().liveouts
        if liveout_id not in liveouts:
            raise InterpError(f"liveout #{liveout_id} never stored")
        return liveouts[liveout_id]

    return retrieve_liveout


def _fork_handler(interp, opcode: str):
    if interp.fork_handler is None:
        raise InterpError(f"{opcode} executed without a fork handler installed")
    return interp.fork_handler


def _fork(code: _Decoder, inst: ParallelFork):
    return lambda interp, *liveins: _fork_handler(interp, "parallel_fork").fork(
        inst, list(liveins)
    )


def _join(code: _Decoder, inst: ParallelJoin):
    loop_id = inst.loop_id
    return lambda interp: _fork_handler(interp, "parallel_join").join(loop_id)


def _malloc(code: _Decoder, inst: Call):
    site = code.alloc_site(inst)
    return lambda interp, size: interp.memory.malloc(int(size), site)


def _fail(message: str):
    raise InterpError(message)


#: Instruction class -> maker of its effect ``f(interp, *operand values)``;
#: a new effectful opcode is one entry here.
_EFFECTS = {
    Alloca: _alloca,
    Store: _store,
    Produce: _produce,
    ProduceBroadcast: _produce_broadcast,
    StoreLiveout: _store_liveout,
    RetrieveLiveout: _retrieve_liveout,
    ParallelFork: _fork,
    ParallelJoin: _join,
}


class _Segments(dict):
    """``block -> what runs from its entry``, rendered on first entry.

    A *region* (:func:`_regions`) is a loop run as one function: its
    header maps to ``(function, 0, header, 0)``, and its other blocks,
    which only its own edges enter, map to nothing.  Every other block
    maps to its first *segment*: a maximal run of non-phi instructions
    that can push a frame or park only at its ends: it ends after a call
    to a defined function, before a :class:`Consume`, or with the
    terminator.  A segment is ``(function, length, block, start)``.
    Either function runs ``(interp, frame)`` and returns the frame's next
    segment or region, ``None`` once another frame is on top (a caller
    resumes at its ``frame.seg``), or ``False`` when the consume it
    starts with finds its queue empty; a region leaving for a block that
    would overrun ``max_steps`` returns that block as
    ``(None, length, block, start)``, which :meth:`Interpreter.resume`
    runs up to the limit.  As with :class:`_Decoder`, neither this cache
    nor a rendered function's namespace holds the interpreter or its
    memory.
    """

    def __init__(self, code: _Decoder) -> None:
        self.code = code
        #: Block -> ``(blocks, dominates)`` of the region it belongs to.
        self.regions: dict[BasicBlock, tuple] = {}
        self._analysed: set[Function] = set()

    def __missing__(self, block: BasicBlock):
        insts = block.instructions
        if block.terminator is None:
            raise InterpError(f"block {block.name} has no terminator")
        function = block.parent
        if function not in self._analysed:
            self._analysed.add(function)
            for region in _regions(function):
                self.regions.update(dict.fromkeys(region[0], region))
        region = self.regions.get(block)
        if region is not None:
            if block is not region[0][0]:
                raise InterpError(
                    f"block {block.name} runs inside the region of {region[0][0].name}"
                )
            segment = self[block] = (_render_region(self.code, *region), 0, block, 0)
            return segment
        lead = block.first_non_phi_index()
        cuts = {lead, len(insts)}
        for i, inst in enumerate(insts[lead:-1], lead):
            if type(inst) is Consume:  # a parked frame resumes at the consume
                cuts.add(i)
            elif type(inst) is Call and not inst.callee.is_declaration:
                cuts.add(i + 1)
        cuts = sorted(cuts)
        segment = None
        for lo, hi in reversed(list(zip(cuts, cuts[1:]))):  # each holds the one after it
            segment = (_render(self.code, block, lo, hi, segment), hi - lo, block, lo)
        self[block] = segment
        return segment


def _regions(function: Function) -> list[tuple[list[BasicBlock], object]]:
    """Every region of ``function``: the outermost natural loops (with the
    loops nested in them) that :func:`_runs_as_region` accepts, each as
    its blocks, header first in reverse postorder, and the function's
    dominance test."""
    # Imported here: repro.analysis imports this module.
    from ..analysis.cfg import reverse_postorder
    from ..analysis.loops import LoopInfo

    info = LoopInfo(function)
    dominates = info.domtree.dominates
    order = reverse_postorder(function)
    found, pending = [], info.top_level()
    while pending:
        loop = pending.pop()
        blocks = [block for block in order if loop.contains_block(block)]  # reachable
        if _runs_as_region(blocks, dominates):
            found.append((blocks, dominates))
        else:
            pending += loop.children
    return found


def _runs_as_region(blocks: list[BasicBlock], dominates) -> bool:
    """Whether a loop's reachable ``blocks``, header first, run as one
    region.

    No block may hold a segment cut (a region's frame is on top from
    entry to exit) or an op that raises when run (a phi out of place, a
    call to an undefined function, an unknown opcode), and the
    function's entry is no header (its phis would be read unset).  Every
    operand must be defined on every path to its use, so that a region
    can read its live-ins once on entry and hold its own values in
    locals: a live-in dominates the header, a value of the loop its use
    (a phi's operand: the predecessor), and one of the same block comes
    first.
    """
    header, members = blocks[0], set(blocks)
    if header is header.parent.entry:
        return False
    for block in blocks:
        seen: set[Instruction] = set()
        lead = block.first_non_phi_index()
        for i, inst in enumerate(block.instructions):
            cls = type(inst)
            if cls is Phi:
                if i >= lead:
                    return False
                uses = [(v, p) for v, p in inst.incoming() if p in members]
            elif (
                cls in FORMS or cls in _EFFECTS or cls in (Load, Jump, CondBranch)
                or cls is Call and inst.callee.name in MALLOC_NAMES
                and inst.callee.is_declaration
            ):
                uses = [(v, block) for v in inst.operands]
            else:
                return False
            for value, at in uses:
                if not isinstance(value, Instruction):
                    continue
                home = value.parent
                if home not in members:
                    defined = dominates(home, header)
                elif home is block and cls is not Phi:
                    defined = value in seen
                else:
                    defined = dominates(home, at)
                if not defined:
                    return False
            seen.add(inst)
    return True


class _Text:
    """One generated function: its lines, its namespace and its locals.

    The IR-to-Python generator every executor renders through: the
    interpreter's segments and regions (:func:`_render`,
    :func:`_render_region`) and the specialized hardware worker's
    register-only states (:mod:`repro.hw.specialize`).
    ``bind(value)`` is the executor's ``(key, const)`` (``key`` None for a
    constant) and ``home(key)`` the text naming where it keeps a runtime
    value between two functions (``env[K3]``, ``regs[7]``).  A value is a
    local from its definition or first read on; a pure op is its
    :data:`~repro.interp.ops.FORMS` expression over those locals.  The
    text holds generated names and ``repr`` of ``int`` only: every other
    constant, IR object and bound operation is reached through the
    namespace, which an executor must keep free of itself and its memory.
    """

    def __init__(self, bind, home) -> None:
        self.bind = bind
        self.home = home
        self.ns: dict[str, object] = {"__builtins__": {}}
        self.body: list[str] = []
        self.local: dict = {}

    def ref(self, obj, kind: str = "K") -> str:
        name = f"{kind}{len(self.ns)}"
        self.ns[name] = obj
        return name

    def use(self, value: Value, local: dict | None = None, out: list | None = None) -> str:
        """``value`` as an operand; a live-in is read from its home once."""
        local = self.local if local is None else local
        key, const = self.bind(value)
        if key is None:
            return repr(const) if type(const) is int else self.ref(const)
        if key not in local:
            local[key] = f"v{len(local)}"
            (self.body if out is None else out).append(f"{local[key]} = {self.home(key)}")
        return local[key]

    def define(self, inst: Instruction, expr: str, keep: bool) -> None:
        """``inst = expr``, also stored at its home when ``keep``."""
        if not inst.type.is_void:
            key = self.bind(inst)[0]
            self.local[key] = name = f"v{len(self.local)}"
            expr = f"{self.home(key) + ' = ' if keep else ''}{name} = {expr}"
        self.body.append(expr)

    def pure(self, inst: Instruction, keep: bool) -> None:
        values = [self.use(v) for v in inst.operands]
        self.define(inst, expression(inst, values, self.ref), keep)

    def moves(self, pairs, local: dict, out: list) -> None:
        """Each ``(phi, source)`` of one edge as a parallel copy: every
        source is read before any phi's home is written."""
        sources = [self.use(source, local, out) for _, source in pairs]
        out += [f"{self.home(self.bind(phi)[0])} = {s}" for (phi, _), s in zip(pairs, sources)]

    def access(self, memory_type, inst: Load | Store, values: list[str], keep: bool) -> None:
        """A load or store over the local ``memory``, ``values`` its
        operand texts: inline on the plain class (:meth:`Memory.load_form`),
        else through the class's own accessor."""
        if type(inst) is Load:
            form = memory_type.load_form(inst.type, values[0], self.ref)
            if form is None:
                form = [], f"{self.ref(memory_type.loader(inst.type), 'F')}(memory, {values[0]})"
            self.body += form[0]
            self.define(inst, form[1], keep)
            return
        value, addr = values
        lines = memory_type.store_form(inst.value.type, addr, value, self.ref)
        if lines is None:
            storer = self.ref(memory_type.storer(inst.value.type), "F")
            lines = [f"{storer}(memory, {addr}, {value})"]
        self.body += lines

    def function(self, params: str, shared: bool = True):
        """The text as ``def (params)``.  A ``shared`` text's code comes
        from the process's memo, for texts rendered again by every new
        executor (a block's segment); one rendered once for an object
        that owns the result (a vsim design) is compiled on its own, so
        its code dies with that object."""
        text = f"def seg({params}):\n" + "".join(f" {line}\n" for line in self.body)
        exec(_segment_code(text) if shared else compile_text(text), self.ns)
        return self.ns.pop("seg")


def escapes(inst: Instruction, members, block: BasicBlock, closes: bool) -> bool:
    """Whether a reader outside ``members`` (``block``'s instructions one
    function runs; ``closes`` when they end with its terminator) needs
    ``inst`` at its home."""
    return any(
        not closes or any(p is not block for v, p in user.incoming() if v is inst)
        if type(user) is Phi
        else user not in members
        for user in inst.users
    )


def _charge(out: list[str], cycles: int) -> None:
    if cycles:
        out.append(f"interp.cycles += {cycles}")


def _emit(text: _Text, code: _Decoder, block: BasicBlock, insts, keep, edge, following) -> None:
    """Append the lines of ``insts``, a run of ``block``'s non-phi
    instructions, to ``text.body``.

    A pure op is its expression form and a load or store is inlined
    (:meth:`_Text.access`); every other operation is the object its
    ``_EFFECTS`` maker returns, reached through the namespace.
    ``keep(inst)`` says whether a value also goes to its home, and
    ``edge(target, local, spent)`` gives the lines taking the edge
    ``block -> target``.  A call pushes its callee's frame and leaves the
    caller at ``following``, as does a range that stops before a consume;
    a consume on an empty queue returns ``False``.  A phi out of place,
    an unknown opcode or a call to an undefined function raises when run.

    Under ``code.costs`` the text also charges each instruction's cycles
    to ``interp.cycles``: summed while rendering, added before every op
    that is not pure (so a ``Memory`` subclass sees the cycle the
    instructions before it reached) and before every exit (``spent``, for
    an edge).
    """
    body, ref, use = text.body, text.ref, text.use
    costs = code.costs
    cost = (lambda inst: 0) if costs is None else costs.__getitem__
    spent = 0  # cycles of the instructions rendered since the last charge
    for inst in insts:
        cls = type(inst)
        if cls in FORMS:
            text.pure(inst, keep(inst))
            spent += cost(inst)
            continue
        if cls is Phi:  # out of place: set only if an edge latched it
            failure = ref("phi encountered outside a block entry")
            body.append(f"if {ref(inst)} not in env: {ref(_fail, 'F')}({failure})")
            continue
        values = [use(v) for v in inst.operands if not isinstance(v, BasicBlock)]
        if cls is not Jump and cls is not CondBranch:  # may reach memory or leave
            _charge(body, spent)
            spent = 0
        spent += cost(inst)
        if cls is Load or cls is Store:
            text.access(code.memory_type, inst, values, keep(inst))
        elif cls is Call and not inst.callee.is_declaration:
            callee = inst.callee
            body.append(f"new = Frame({ref(callee)}, {ref(inst)})")
            body += [f"new.env[{ref(a)}] = {v}" for a, v in zip(callee.args, values)]
            body.append(f"new.seg = interp._segs[{ref(callee.entry)}]")
            body += [f"frame.seg = {ref(following)}", "interp._stack.append(new)"]
            code.count(callee.entry, body)
            _charge(body, spent)
        elif cls in _EFFECTS or cls is Call and inst.callee.name in MALLOC_NAMES:
            effect = ref(_EFFECTS.get(cls, _malloc)(code, inst), "F")
            text.define(inst, f"{effect}({', '.join(['interp'] + values)})", keep(inst))
        elif cls is Jump:
            body += edge(inst.target, text.local, spent)
        elif cls is CondBranch:
            body.append(f"if {values[0]}:")
            body += [" " + line for line in edge(inst.if_true, dict(text.local), spent)]
            body.append("else:")
            body += [" " + line for line in edge(inst.if_false, dict(text.local), spent)]
        elif cls is Ret:
            body += ["stack = interp._stack", "stack.pop()"]
            if values:
                body.append(f"if stack: stack[-1].env[frame.call_inst] = {values[0]}")
                body.append(f"else: interp._return_value = {values[0]}")
            _charge(body, spent)
        elif cls is Consume:  # first in its segment: parking re-runs nothing
            got = f"{ref(_consume(code, inst), 'F')}({', '.join(['interp'] + values)})"
            body += [f"got = {got}", "if not got[0]: return False"]
            text.define(inst, "got[1]", keep(inst))
        else:
            failure = (
                f"call to undefined function @{inst.callee.name}" if cls is Call
                else f"cannot interpret opcode {inst.opcode}"
            )
            body.append(f"{ref(_fail, 'F')}({ref(failure)})")
    if following is not None and not (cls is Call and not inst.callee.is_declaration):
        _charge(body, spent)  # the range stops before a consume
        body.append(f"return {ref(following)}")


def _phi_costs(code: _Decoder, out: list[str], spent: int, phis) -> None:
    """Charge an edge: ``spent`` and its phis' cycles, its phis as moves."""
    if code.costs is not None:
        _charge(out, spent + sum(code.costs[phi] for phi in phis))
        if phis:
            out.append(f"interp.moves += {len(phis)}")


def _binds_memory(code: _Decoder, insts, ref) -> list[str]:
    """The lines binding ``memory`` (and the buffer, for an inlined plain
    image) when ``insts`` access memory."""
    if not any(type(inst) is Load or type(inst) is Store for inst in insts):
        return []
    return ["memory = interp.memory"] + [buffer_line(ref)] * (code.memory_type is Memory)


def _render(code: _Decoder, block: BasicBlock, lo: int, hi: int, following):
    """``block.instructions[lo:hi]`` as one Python function of ``(interp, frame)``.

    A value defined in the range is a local, written back to
    ``frame.env`` only if it has a user elsewhere; one defined elsewhere
    is read there at its first use (see :func:`_emit`).
    """
    insts = block.instructions[lo:hi]
    members = set(insts)
    closes = hi == len(block.instructions)  # the range ends with the terminator
    text = _Text(code.bind, lambda key: f"env[{text.ref(key)}]")
    text.ns["Frame"] = _Frame
    text.body += ["env = frame.env", *_binds_memory(code, insts, text.ref)]

    def edge(target: BasicBlock, local: dict, spent: int) -> list[str]:
        """``block -> target``: sources are locals before any phi is written."""
        out: list[str] = []
        phis = target.phis()
        text.moves([(phi, phi.incoming_for(block)) for phi in phis], local, out)
        _phi_costs(code, out, spent, phis)
        code.count((block, target), out)
        out.append(f"return interp._segs[{text.ref(target)}]")
        return out

    def keep(inst: Instruction) -> bool:
        return escapes(inst, members, block, closes)

    _emit(text, code, block, insts, keep, edge, following)
    return text.function("interp, frame")


def _render_region(code: _Decoder, blocks: list[BasicBlock], dominates):
    """A region, ``blocks`` (header first), as one Python function of
    ``(interp, frame)``.

    Its live-ins and the header's phis are read from ``frame.env`` once,
    on entry; every value of the region is a local, and each edge inside
    it moves the target's phis as one parallel copy.  The blocks run in a
    ``while True:`` under a block cursor ``at`` (the index in ``blocks``):
    an edge to a later block falls through to it, one to an earlier
    block (a back edge) starts the loop again.
    A block's steps count on entry, as a segment's do; a block that would
    overrun ``max_steps`` writes what it reads to ``frame.env`` and leaves
    as its own segment, which :meth:`Interpreter.resume` runs up to the
    limit.  An exit writes the exit block's phis and the escaping values
    the exit has (those defined in a block that dominates it) and returns
    the exit block's segment.
    """
    region = set(blocks)
    text = _Text(code.bind, lambda key: f"env[{text.ref(key)}]")
    ref, local = text.ref, text.local
    insts = [inst for block in blocks for inst in block.instructions]
    defined = [inst for inst in insts if not inst.type.is_void]
    head = ["env = frame.env", "steps = interp.steps", "limit = interp.max_steps",
            *_binds_memory(code, insts, ref)]
    for phi in blocks[0].phis():
        text.use(phi, local, head)
    for phi in (phi for block in blocks[1:] for phi in block.phis()):
        local[phi] = f"v{len(local)}"
    inside = set(defined)
    for inst in insts:
        if type(inst) is Phi:
            operands = [v for v, p in inst.incoming() if p in region]
        else:
            operands = [v for v in inst.operands if not isinstance(v, BasicBlock)]
        for value in operands:
            if value not in inside:
                text.use(value, local, head)
    escaping = [
        value for value in defined
        if any(
            any(v is value and p not in region for v, p in user.incoming())
            if type(user) is Phi else user.parent not in region
            for user in value.users
        )
    ]
    body: list[str] = []
    for at, block in enumerate(blocks):

        def edge(target: BasicBlock, local: dict, spent: int) -> list[str]:
            out: list[str] = []
            phis = target.phis()
            pairs = [(phi, phi.incoming_for(block)) for phi in phis]
            if target not in region:  # an exit
                text.moves(pairs, local, out)
                out += [f"env[{ref(value)}] = {local[value]}"
                        for value in escaping if dominates(value.parent, block)]
                _phi_costs(code, out, spent, phis)
                code.count((block, target), out)
                return out + [f"return interp._segs[{ref(target)}]"]
            sources = [text.use(source, local, out) for _, source in pairs]
            if phis:
                out.append(f"{', '.join(local[phi] for phi in phis)} = {', '.join(sources)}")
            _phi_costs(code, out, spent, phis)
            code.count((block, target), out)
            out.append(f"at = {blocks.index(target)}")  # a later block: falls through
            return out + ["continue"] * (blocks.index(target) <= at)

        phis = block.phis()
        n = len(block.instructions) - len(phis)
        reads = list(phis)
        for inst in block.instructions[len(phis):]:
            reads += [v for v in inst.operands if v in inside and v.parent is not block]
        text.body = [
            f"steps += {n}",
            "if steps > limit:",
            *(f" env[{ref(value)}] = {local[value]}" for value in dict.fromkeys(reads)),
            f" steps -= {n}",
            f" return {ref((None, n, block, len(phis)))}",
        ]
        _emit(text, code, block, block.instructions[len(phis):], lambda inst: False, edge, None)
        body += [f"if at == {at}:", *(" " + line for line in text.body)]
    text.body = [*head, "at = 0", "try:", " while True:",
                 *("  " + line for line in body), "finally:", " interp.steps = steps"]
    return text.function("interp, frame")


#: A block always renders to the same text: a process compiles it once.
_segment_code = code_of


def _number_malloc_sites(module: Module) -> dict[int, int]:
    """``id(call) -> site``: malloc call sites numbered across the module.

    The same numbering is used by the points-to analysis
    (:mod:`repro.analysis.pointsto`), so static abstract objects and
    runtime allocations correspond one-to-one.
    """
    return {id(inst): site for site, inst in malloc_site_table(module).items()}


def malloc_site_table(module: Module) -> dict[int, Call]:
    """site id -> call instruction, in deterministic module order."""
    table: dict[int, Call] = {}
    counter = 0
    for function in module.functions.values():
        for inst in function.instructions():
            if isinstance(inst, Call) and inst.callee.name in MALLOC_NAMES:
                table[counter] = inst
                counter += 1
    return table


def reachable_ir(module: Module, root: str) -> str:
    """Everything an interpreted call of ``root`` can observe in ``module``.

    The struct layouts and the globals as :func:`_place_globals` lays
    them out, then each function reachable from ``root`` through calls
    and forks, printed, with the module-wide site number of every
    ``malloc`` in it and the channels it names.  Modules that agree on
    this text run ``root`` from equal images to equal images and equal
    return values, so it is the module's share of a memo key (see
    :mod:`repro.fleet`); a function the pipeline transform rewrote prints
    differently per design.
    """
    sites = _number_malloc_sites(module)
    lines = print_declarations(module)
    seen: set[Function] = set()
    channels: dict[int, object] = {}
    pending = [module.get_function(root)]
    while pending:
        function = pending.pop()
        if function in seen:
            continue
        seen.add(function)
        lines.append(print_function(function))
        mallocs = []
        callees = []
        for inst in function.instructions():
            if isinstance(inst, Call):
                callees.append(inst.callee)
                if id(inst) in sites:
                    mallocs.append(sites[id(inst)])
            elif isinstance(inst, ParallelFork):
                callees.append(inst.task)
            elif isinstance(inst, (Produce, ProduceBroadcast, Consume)):
                channels[inst.channel.channel_id] = inst.channel
        lines.append(f"; malloc sites {mallocs}")
        pending.extend(reversed(callees))
    lines.extend(repr(channels[i]) for i in sorted(channels))
    return "\n".join(lines)


def _place_globals(module: Module, memory: Memory) -> dict[str, int]:
    addresses: dict[str, int] = {}
    for g in module.globals.values():
        addr = memory.malloc(
            g.value_type.size(), site=-3, align=max(g.value_type.alignment(), 4)
        )
        addresses[g.name] = addr
        if g.initializer is not None:
            _write_initializer(memory, addr, g.value_type, list(g.initializer))
    return addresses


def _write_initializer(memory: Memory, addr: int, type_, flat: list) -> None:
    """Write a flat scalar list into memory following the type layout."""
    scalars = _scalar_layout(type_)
    if len(flat) != len(scalars):
        raise InterpError(
            f"initializer has {len(flat)} scalars, type needs {len(scalars)}"
        )
    for (offset, scalar_type), value in zip(scalars, flat):
        memory.store(addr + offset, scalar_type, value)


def _scalar_layout(type_, base: int = 0) -> list:
    if isinstance(type_, (IntType, FloatType, PointerType)):
        return [(base, type_)]
    if isinstance(type_, ArrayType):
        out = []
        for i in range(type_.count):
            out.extend(_scalar_layout(type_.element, base + i * type_.element.size()))
        return out
    if isinstance(type_, StructType):
        out = []
        for i, (_, ftype) in enumerate(type_.fields):
            out.extend(_scalar_layout(ftype, base + type_.field_offset(i)))
        return out
    raise InterpError(f"no scalar layout for {type_!r}")
