"""Explicit-stack IR interpreter.

One executor: each function runs as one rendered generator over Python
locals (:func:`_program`), and :meth:`Interpreter.resume` drives a stack
of them as a trampoline (no Python recursion, however deep the calls).
:meth:`Interpreter.call` runs a function to completion that way.  A call
parks on a :class:`Consume` of an empty channel and
:meth:`~Interpreter.resume` picks it up there, which is what lets the
functional pipeline checker (:mod:`repro.pipeline.cosim`) and the RTL
co-simulation's oracle run many task interpreters round-robin.  Given
static per-instruction ``costs`` (the MIPS baseline,
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


#: Index recorded for a broadcast push (one log entry covers all queues).
BROADCAST_INDEX = -1


class ChannelIO:
    """Unbounded in-order channels for *functional* pipeline execution.

    The hardware simulator has its own bounded FIFOs with cycle costs; this
    class exists so the pipeline transform can be validated for correctness
    independent of timing.

    It logs its traffic, every entry carrying ``tag``, the machine the
    caller is resuming (:class:`~repro.pipeline.cosim.FunctionalForkHandler`
    sets it around each :meth:`Interpreter.resume`):

    * ``push_log`` — ``(tag, channel_id, index, value)``; a broadcast is
      one entry with ``index == BROADCAST_INDEX``.
    * ``pop_log`` — ``(tag, channel_id, index, value)``.
    * ``liveout_log`` — ``(tag, liveout_id, value)``.

    Indices are post-modulo, exactly what the channels were keyed by.
    """

    def __init__(self) -> None:
        # Deques, not lists: a deep queue (e.g. an unthrottled producer
        # ahead of a slow consumer) made ``pop(0)`` O(n) per token and
        # the whole functional run O(n^2).
        self._queues: dict[tuple[int, int], deque] = {}
        self.liveouts: dict[int, int | float] = {}
        self.tag: str = "parent"
        self.push_log: list[tuple[str, int, int, int | float]] = []
        self.pop_log: list[tuple[str, int, int, int | float]] = []
        self.liveout_log: list[tuple[str, int, int | float]] = []

    def _queue(self, channel_id: int, index: int) -> deque:
        return self._queues.setdefault((channel_id, index), deque())

    def produce(self, channel, index: int, value) -> None:
        self._queue(channel.channel_id, index).append(value)
        self.push_log.append((self.tag, channel.channel_id, index, value))

    def produce_broadcast(self, channel, value) -> None:
        for i in range(channel.n_channels):
            self._queue(channel.channel_id, i).append(value)
        self.push_log.append(
            (self.tag, channel.channel_id, BROADCAST_INDEX, value)
        )

    def try_consume(self, channel, index: int):
        """Returns (True, value) or (False, None) when empty."""
        queue = self._queue(channel.channel_id, index)
        if not queue:
            return False, None
        value = queue.popleft()
        self.pop_log.append((self.tag, channel.channel_id, index, value))
        return True, value

    def store_liveout(self, liveout_id: int, value) -> None:
        self.liveouts[liveout_id] = value
        self.liveout_log.append((self.tag, liveout_id, value))

    def queue_snapshot(self) -> dict[tuple[int, int], tuple]:
        """Pending token values per non-empty ``(channel_id, index)`` queue."""
        return {key: tuple(q) for key, q in self._queues.items() if q}


#: Deepest call stack one run may build, as a C program's stack is
#: bounded: a call past it raises instead of growing the stack until the
#: step budget (200 M steps of unbounded recursion would take ~33 GB).
MAX_CALL_DEPTH = 100_000


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
        #: One generator per active call, the innermost last.
        self._stack: list = []
        self._return_value: int | float | None = None
        if global_addresses is not None:
            self.global_addresses = dict(global_addresses)
        else:
            self.global_addresses = _place_globals(module, self.memory)
        self._programs = _Programs(_Decoder(
            module, self.global_addresses, type(self.memory), costs, counted
        ))

    # -- public driving --------------------------------------------------------

    def call(self, function: Function | str, args: list[int | float]):
        """Run ``function`` to completion and return its return value."""
        self.enter(function, args)
        if not self.resume():
            _abandon(self._stack)
            raise InterpError(BLOCKED_OUTSIDE_SCHEDULER)
        return self._return_value

    def enter(self, function: Function | str, args: list[int | float]) -> None:
        """Push a call of ``function``; :meth:`resume` runs it."""
        if isinstance(function, str):
            function = self.module.get_function(function)
        if self._stack:
            raise InterpError("interpreter is already running a call")
        if len(args) != len(function.args):
            raise InterpError(
                f"@{function.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        self._stack.append(self._programs[function](self, *args))
        self._return_value = None

    def resume(self) -> bool:
        """Run the calls on the stack until it empties (True) or the call
        on top parks on an empty channel (False).

        Each call is a generator of its function's program
        (:func:`_program`).  It yields a callee's generator, which this
        loop pushes and starts, and gets the callee's return value back
        through ``send``: a trampoline, not ``yield from``, so a call
        chain of any depth (up to :data:`MAX_CALL_DEPTH`) costs no Python
        stack.  It yields None when a consume finds its queue empty (the
        consume retries on the next resume), and ``(block, start)`` where
        a run would pass ``max_steps``: the run's first instructions run
        up to the limit (:func:`_render`) on the generator's values, then
        it raises, or parks if the consume it starts with finds no token.
        With no call on the stack there is nothing to run: True.
        """
        stack = self._stack
        if not stack:
            return True
        gen, value = stack[-1], None
        try:
            while True:
                try:
                    request = gen.send(value)
                except StopIteration as returned:
                    stack.pop()
                    if not stack:
                        self._return_value = returned.value
                        return True
                    gen, value = stack[-1], returned.value
                    continue
                if request is None:  # parked on an empty channel
                    return False
                if type(request) is tuple:  # the run would pass max_steps
                    block, lo = request
                    limit = self.max_steps
                    before, self.steps = self.steps, limit + 1
                    run = _render(self._programs.code, block, lo, lo + limit - before)
                    if run(self, _Env(gen.gi_frame)) is False:
                        self.steps = before  # parked on the consume it starts with
                        return False
                    raise InterpError(f"exceeded max_steps={limit}")
                if len(stack) >= MAX_CALL_DEPTH:
                    raise InterpError(f"call depth exceeded {MAX_CALL_DEPTH}")
                stack.append(request)
                gen, value = request, None
        except BaseException as exc:
            _abandon(stack)
            if isinstance(exc, NameError):  # a program's local that nothing set
                raise _undefined(exc) from None
            raise

    def _require_io(self) -> ChannelIO:
        if self.channel_io is None:
            raise InterpError("CGPA primitive executed without a ChannelIO")
        return self.channel_io


def _abandon(stack: list) -> None:
    """End every call of a run that cannot go on.  The generators stay on
    the stack (the interpreter is still busy with that call), but they
    hold the interpreter no more: it dies by refcount."""
    for gen in stack:
        gen.close()


def _undefined(exc: NameError) -> InterpError:
    """The error of a program that read a local no definition had set."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    function = tb.tb_frame.f_globals["function"]
    return _use_of_undefined(function, _locals(function)[int(str(exc).split("'")[1][1:])])


def _use_of_undefined(function: Function, value: Value) -> InterpError:
    return InterpError(f"use of undefined value {value.short_name()} in @{function.name}")


class _Env(dict):
    """The values a stopped generator holds, keyed by IR value, read off
    its frame (the locals ``v0, v1, ...`` of :func:`_locals`).  A miss is
    a use before definition."""

    def __init__(self, frame) -> None:
        self.function = frame.f_globals["function"]
        held = frame.f_locals
        super().__init__(
            (value, held[f"v{i}"])
            for i, value in enumerate(_locals(self.function)) if f"v{i}" in held
        )

    def __missing__(self, value: Value):
        raise _use_of_undefined(self.function, value)


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
        self.costs = costs  # rendered into the programs
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
        interp._require_io().store_liveout(liveout_id, value)

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


class _Programs(dict):
    """``function -> its program``, rendered (:func:`_program`) when a
    call first enters it, bound against ``code``.  As with
    :class:`_Decoder`, neither this cache nor a program's namespace holds
    the interpreter or its memory."""

    def __init__(self, code: _Decoder) -> None:
        self.code = code

    def __missing__(self, function: Function):
        program = self[function] = _program(self.code, function)
        return program


def _locals(function: Function) -> list[Value]:
    """Every runtime value a program of ``function`` holds, in the order
    of their locals ``v0, v1, ...``: the arguments, the instructions, then
    any operand defined nowhere in it (reading one raises)."""
    values = dict.fromkeys([*function.args, *function.instructions()])
    for inst in list(values)[len(function.args):]:
        values.update(dict.fromkeys(
            v for v in inst.operands
            if not isinstance(v, (BasicBlock, Constant, GlobalVariable))
        ))
    return list(values)


class _Text:
    """One generated function: its lines, its namespace and its locals.

    The IR-to-Python generator every executor renders through: the
    interpreter's programs and the start of a run it stops at
    ``max_steps`` (:func:`_program`, :func:`_render`), the specialized
    hardware worker's generators (:mod:`repro.hw.specialize`) and the
    RTL simulator's designs (:mod:`repro.vsim.elaborate`).
    ``bind(value)`` is the executor's ``(key, const)`` (``key`` None for a
    constant) and ``home(key)`` the text reading a runtime value that has
    no local yet (``env[K3]``).  A value is a local from its definition
    or first read on; a pure op is its
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

    def use(self, value: Value) -> str:
        """``value`` as an operand; a value with no local is read from its
        home once."""
        key, const = self.bind(value)
        if key is None:
            return repr(const) if type(const) is int else self.ref(const)
        if key not in self.local:
            self.local[key] = f"v{len(self.local)}"
            self.body.append(f"{self.local[key]} = {self.home(key)}")
        return self.local[key]

    def define(self, inst: Instruction, expr: str) -> None:
        """``inst = expr``, into the local ``inst`` has or a new one."""
        if not inst.type.is_void:
            key = self.bind(inst)[0]
            if key not in self.local:
                self.local[key] = f"v{len(self.local)}"
            expr = f"{self.local[key]} = {expr}"
        self.body.append(expr)

    def pure(self, inst: Instruction) -> None:
        values = [self.use(v) for v in inst.operands]
        self.define(inst, expression(inst, values, self.ref))

    def access(self, memory_type, inst: Load | Store, values: list[str]) -> None:
        """A load or store over the local ``memory``, ``values`` its
        operand texts: inline on the plain class (:meth:`Memory.load_form`),
        else through the class's own accessor."""
        if type(inst) is Load:
            form = memory_type.load_form(inst.type, values[0], self.ref)
            if form is None:
                form = [], f"{self.ref(memory_type.loader(inst.type), 'F')}(memory, {values[0]})"
            self.body += form[0]
            self.define(inst, form[1])
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
        executor (a function's program); one rendered once for an object
        that owns the result (a vsim design) is compiled on its own, so
        its code dies with that object."""
        text = f"def fn({params}):\n" + ("".join(f" {line}\n" for line in self.body) or " pass\n")
        exec(_text_code(text) if shared else compile_text(text), self.ns)
        return self.ns.pop("fn")


def _charge(out: list[str], cycles: int) -> None:
    if cycles:
        out.append(f"interp.cycles += {cycles}")


def _emit(text: _Text, code: _Decoder, block: BasicBlock, lo: int, hi: int, control) -> None:
    """Append the lines of ``block.instructions[lo:hi]``, non-phi
    instructions, to ``text.body``.

    A pure op is its expression form and a load or store is inlined
    (:meth:`_Text.access`); every other operation is the object its
    ``_EFFECTS`` maker returns, reached through the namespace.
    ``control(j, inst, values, spent)`` renders the j-th instruction when
    it is a consume (``values`` then its one call), a call to a defined
    function, a return or a branch, and returns the cycles left to charge
    after it.  A phi out of place, an unknown opcode or a call to an
    undefined function raises when run.

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
    for j in range(lo, hi):
        inst = block.instructions[j]
        cls = type(inst)
        if cls in FORMS:
            text.pure(inst)
            spent += cost(inst)
            continue
        if cls is Phi:  # out of place: set only if an edge latched it
            fail = f"{ref(_fail, 'F')}({ref('phi encountered outside a block entry')})"
            body += ([f"if {ref(inst)} not in env: {fail}"] if text.home else
                     [f"try: {use(inst)}", f"except {ref(NameError)}: {fail}"])
            continue
        values = [use(v) for v in inst.operands if not isinstance(v, BasicBlock)]
        if cls is not Jump and cls is not CondBranch:  # may reach memory or leave
            _charge(body, spent)
            spent = 0
        spent += cost(inst)
        if cls is Load or cls is Store:
            text.access(code.memory_type, inst, values)
        elif cls is Consume:
            got = f"{ref(_consume(code, inst), 'F')}({', '.join(['interp'] + values)})"
            spent = control(j, inst, [got], spent)
        elif cls in (Jump, CondBranch, Ret) or cls is Call and not inst.callee.is_declaration:
            spent = control(j, inst, values, spent)
        elif cls in _EFFECTS or cls is Call and inst.callee.name in MALLOC_NAMES:
            effect = ref(_EFFECTS.get(cls, _malloc)(code, inst), "F")
            text.define(inst, f"{effect}({', '.join(['interp'] + values)})")
        else:
            failure = (
                f"call to undefined function @{inst.callee.name}" if cls is Call
                else f"cannot interpret opcode {inst.opcode}"
            )
            body.append(f"{ref(_fail, 'F')}({ref(failure)})")


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


def _indent(lines: list[str]) -> list[str]:
    return [" " + line for line in lines]


def _program(code: _Decoder, function: Function):
    """``function`` as one generator function of ``(interp, *args)``.

    Every runtime value is a local (:func:`_locals`), and a block cursor
    ``at`` picks the block to run, the blocks in reverse postorder under
    one ``while True:`` (an entry no edge returns to runs ahead of it):
    an edge moves the target's phis as one parallel copy, then falls
    through to a later block or starts the loop again for an earlier
    one.  A call yields the callee's generator and takes its return
    value from :meth:`Interpreter.resume`; a consume that finds its
    queue empty yields None and retries when resumed.

    Steps count by *runs*: a run starts at a block's first non-phi
    instruction, after a call to a defined function and at a consume, and
    counts its instructions when it starts (the local ``steps``, written
    back before a call, a park, a return or an error), so a trap or
    ``max_steps`` raises at the step it always has.  A run that would
    pass ``max_steps`` yields ``(block, start)`` instead, for
    :meth:`Interpreter.resume` to run it up to the limit on the values the
    generator holds.  A block that cannot run (no terminator) raises when
    entered.
    """
    # Imported here: repro.analysis imports this module.
    from ..analysis.cfg import reverse_postorder

    blocks = reverse_postorder(function)
    index = {block: i for i, block in enumerate(blocks)}
    values = _locals(function)
    text = _Text(code.bind, None)
    text.local = names = {value: f"v{i}" for i, value in enumerate(values)}
    text.ns["function"] = function  # names the value an undefined read meant
    ref, use = text.ref, text.use

    def count(block: BasicBlock, lo: int, hi: int, retry: bool = False) -> list[str]:
        """Start the run ``block.instructions[lo:hi]``; a ``retry`` run
        (a consume's) starts again when resumed."""
        return [f"steps += {hi - lo}", "if steps > limit:",
                f" interp.steps = steps - {hi - lo}", f" yield {ref((block, lo))}",
                *[" steps = interp.steps", " continue"] * retry]

    def edge(block: BasicBlock, target: BasicBlock, spent: int) -> list[str]:
        out: list[str] = []
        phis = target.phis()
        if phis:
            sources = [use(phi.incoming_for(block)) for phi in phis]
            out.append(f"{', '.join(names[phi] for phi in phis)} = {', '.join(sources)}")
        _phi_costs(code, out, spent, phis)
        code.count((block, target), out)
        out.append(f"at = {index[target]}")  # a later block: falls through
        return out + ["continue"] * (index[target] <= index[block])

    def render(block: BasicBlock) -> list[str]:
        insts = block.instructions
        if block.terminator is None:
            return [f"{ref(_fail, 'F')}({ref(f'block {block.name} has no terminator')})"]
        lead = block.first_non_phi_index()
        cuts = {lead, len(insts)}
        for j, inst in enumerate(insts[lead:-1], lead):
            if type(inst) is Consume:  # a parked consume retries its run
                cuts.add(j)
            elif type(inst) is Call and not inst.callee.is_declaration:
                cuts.add(j + 1)
        cuts = sorted(cuts)
        runs = dict(zip(cuts, cuts[1:]))  # a run's start -> its end
        text.body = body = [] if type(insts[lead]) is Consume else count(block, lead, runs[lead])

        def control(j: int, inst: Instruction, values: list[str], spent: int) -> int:
            cls = type(inst)
            if cls is Consume:
                n = runs[j] - j
                body.extend(["while True:", *_indent(count(block, j, runs[j], retry=True)),
                             f" got = {values[0]}", " if got[0]: break",
                             f" interp.steps = steps = steps - {n}", " yield"])
                text.define(inst, "got[1]")
                return spent
            if cls is Call:
                callee = inst.callee
                body.append("interp.steps = steps")
                code.count(callee.entry, body)
                _charge(body, spent)
                text.define(inst, f"yield programs[{ref(callee)}]"
                                  f"({', '.join(['interp'] + values)})")
                body.append("steps = interp.steps")
                if type(insts[j + 1]) is not Consume:  # a consume counts its own run
                    body.extend(count(block, j + 1, runs[j + 1]))
            elif cls is Ret:
                _charge(body, spent)
                body.extend(["interp.steps = steps", f"return {values[0]}" if values else "return"])
            elif cls is Jump:
                body.extend(edge(block, inst.target, spent))
            else:
                body.extend([f"if {values[0]}:", *_indent(edge(block, inst.if_true, spent)),
                             "else:", *_indent(edge(block, inst.if_false, spent))])
            return 0

        _emit(text, code, block, lead, len(insts), control)
        return body

    def loop(lo: int) -> list[str]:
        """The cursor loop over the blocks from ``lo`` on."""
        lines = ["while True:"]
        for i in range(lo, len(blocks)):
            lines += [f" if at == {i}:", *("  " + line for line in render(blocks[i]))]
        return lines

    if any(blocks[0] in block.successors() for block in blocks):  # the entry heads a loop
        body = ["at = 0", *loop(0)]
    else:  # the entry runs once, ahead of the loop over the other blocks
        body = render(blocks[0]) + (loop(1) if len(blocks) > 1 else [])
    insts = [inst for block in blocks for inst in block.instructions]
    head = ["programs = interp._programs"] * any(
        type(inst) is Call and not inst.callee.is_declaration for inst in insts
    )
    text.body = [*head, *_binds_memory(code, insts, ref), "steps = interp.steps",
                 "limit = interp.max_steps", "try:", *_indent(body),
                 f"except {ref(Exception)}:", " interp.steps = steps", " raise"]
    return text.function(", ".join(["interp"] + [names[arg] for arg in function.args]))


def _render(code: _Decoder, block: BasicBlock, lo: int, hi: int):
    """``block.instructions[lo:hi]``, the start of a run that would pass
    ``max_steps``, as one function of ``(interp, env)``: ``env`` holds
    the values of the generator it stopped (:class:`_Env`).  It stops
    short of the run's end, so it never calls, branches or returns; a
    consume starts the run, and returns False when its queue is empty."""
    text = _Text(code.bind, lambda key: f"env[{text.ref(key)}]")
    text.body += _binds_memory(code, block.instructions[lo:hi], text.ref)

    def control(j: int, inst: Instruction, values: list[str], spent: int) -> int:
        text.body += [f"got = {values[0]}", "if not got[0]: return False"]
        text.define(inst, "got[1]")
        return spent

    _emit(text, code, block, lo, hi, control)
    return text.function("interp, env")


#: A function always renders to the same text: a process compiles it once.
_text_code = code_of


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
