"""The interpreter's rendered generators == the lockstep hardware worker.

``Interpreter.call`` runs each function as one rendered generator over
Python locals, driven by ``resume()``'s trampoline.  The independent
reference is the lockstep :class:`~repro.hw.worker.HwWorker` running the
same function, which shares no decoder, control flow, call or phi code
with it: value, ``steps`` (its non-phi instructions), image bytes, access
counters and allocations must agree.  Error text and the step at which
``max_steps`` or a trap raises are pinned.  Under ``costs`` (the MIPS
baseline) and under profiling a function's text is the same text plus
counter lines.
"""

import io
import re
import sys
import threading
import tokenize
import tracemalloc
from inspect import isgeneratorfunction

import pytest
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import LoopInfo
from repro.errors import InterpError
from repro.frontend import compile_c
from repro.hw import AcceleratorSystem, HwWorker, run_on_mips, specialized_for
from repro.hw import worker as worker_module
from repro.hw.mips_core import _costs
from repro.interp import ChannelIO, Interpreter, Memory, profile_call
from repro.interp import interpreter as interpreter_module
from repro.ir import (
    Channel,
    Consume,
    FunctionType,
    Load,
    I32,
    IRBuilder,
    Module,
    Phi,
    PointerType,
    Produce,
    Store,
)
from repro.ir.instructions import Call
from repro.ir.values import Constant
from repro.kernels import ALL_KERNELS
from repro.kernels.base import KARGS_GLOBAL
from repro.transforms import optimize_module
from repro.vsim.cosim import SMOKE_SETUP_ARGS
from tests.test_interp_decode import LOOP_SRC, _CountingMemory, lockstep
from tests.test_pipeline_fuzz import LINKED_LIST_TEMPLATE, LIST_UPDATES, kernel_source

#: The rendered generators, then the lockstep reference.
CALLS = (Interpreter.call, lockstep)


def observe(interp, value=None, error=None):
    memory = interp.memory
    return {
        "value": repr(value),
        "error": error,
        "steps": interp.steps,
        "image": memory.snapshot(),
        "counters": (memory.bytes_read, memory.bytes_written),
        # The worker numbers no malloc sites: addresses and sizes only.
        "allocations": [(a.addr, a.size) for a in memory.allocations],
    }


def run(interp, function, args, call=Interpreter.call):
    try:
        return observe(interp, value=call(interp, function, list(args)))
    except InterpError as exc:
        return observe(interp, error=str(exc))


def both(module, function, args, **how):
    """What the generators and the lockstep reference each leave behind."""
    return tuple(run(Interpreter(module, **how), function, args, call) for call in CALLS)


def module_of(source, optimise=True, name="module"):
    module = compile_c(source, name)
    if optimise:
        optimize_module(module)
    return module


def diffed_setup_args(spec):
    """Paper scale, but em3d's (0.9M steps, ~10 s on the lockstep worker)
    at smoke scale; CI diffs its paper-scale image in the oracle speed
    step."""
    return SMOKE_SETUP_ARGS[spec.name] if spec.name == "em3d" else spec.setup_args


@pytest.mark.parametrize("optimise", [True, False], ids=["compiled", "unoptimised"])
@pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
def test_kernel_setup_measure_and_check_agree(spec, optimise):
    """Set-up and check at paper scale; then a smoke-scale set-up, the
    measured loop on the arguments it leaves, and the check after it."""
    module = module_of(spec.source, optimise, spec.name)
    seen = []
    for call in CALLS:
        setup = Interpreter(module)
        phases = [run(setup, spec.setup_function, diffed_setup_args(spec), call)]
        check = Interpreter(module, setup.memory, global_addresses=setup.global_addresses)
        phases.append(run(check, spec.check_function, [], call))
        setup = Interpreter(module)
        phases.append(run(setup, spec.setup_function, SMOKE_SETUP_ARGS[spec.name], call))
        memory, addresses = setup.memory, setup.global_addresses
        args = [memory.load(addresses[KARGS_GLOBAL] + 4 * i, I32) & 0xFFFFFFFF
                for i in range(spec.n_kernel_args)]
        for function, args in ((spec.measure_entry, args), (spec.check_function, [])):
            interp = Interpreter(module, memory, global_addresses=addresses)
            phases.append(run(interp, function, args, call))
        seen.append(phases)
    assert seen[0] == seen[1]
    assert all(phase["error"] is None for phase in seen[0])


class TestFuzzedPrograms:
    @given(kernel_source(), st.booleans())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_array_kernels(self, src, optimise):
        n, source = src
        generator, reference = both(module_of(source, optimise), "run", [n])
        assert generator == reference and generator["error"] is None

    @given(st.sampled_from(LIST_UPDATES), st.integers(0, 30), st.booleans())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_list_kernels(self, update, n, optimise):
        module = module_of(LINKED_LIST_TEMPLATE.format(update=update), optimise)
        generator, reference = both(module, "run", [n])
        assert generator == reference and generator["error"] is None


NESTED = (
    "int g[16];"
    "int f(int n) { int s = 0;"
    "  for (int i = 0; i < n; i++)"
    "    for (int j = 0; j < i; j++) { g[(i + j) & 15] += j; s += g[i & 15] * j; }"
    "  return s; }"
)
TWO_EXITS = (
    "int g[8];"
    "int f(int n) { int i = 0; int s = 0;"
    "  while (1) { if (i >= n) break; s += g[i & 7] + i; g[s & 7] = i;"
    "    if (s > 60) break; i++; }"
    "  return s * 100 + i; }"
)
EXIT_TO_PHI = (
    "int g[8];"
    "int f(int n) { int r = -1; int i = 0;"
    "  while (i < n) { g[i & 7] = i * 3; if (i * 3 == n) { r = i; break; } i++; }"
    "  return r + g[n & 7]; }"
)


def exits(module):
    """The exit edges of ``f``'s outermost loop."""
    (loop,) = LoopInfo(module.get_function("f")).top_level()
    blocks = set(loop.blocks)
    return {(b, t) for b in blocks for t in b.successors() if t not in blocks}


@pytest.mark.parametrize("n", [0, 1, 4, 9, 12, 30])
class TestLoopShapes:
    def test_nested_loop(self, n):
        module = module_of(NESTED)
        assert len(LoopInfo(module.get_function("f")).loops) == 2
        generator, reference = both(module, "f", [n])
        assert generator == reference and generator["error"] is None

    def test_loop_with_two_exits(self, n):
        module = module_of(TWO_EXITS)
        assert len(exits(module)) == 2
        generator, reference = both(module, "f", [n])
        assert generator == reference and generator["error"] is None

    def test_loop_whose_exit_targets_a_phi(self, n):
        module = module_of(EXIT_TO_PHI)
        assert any(target.phis() for _, target in exits(module))
        generator, reference = both(module, "f", [n])
        assert generator == reference and generator["error"] is None


class _LoggingMemory(Memory):
    """Logs every access: one per load or store executed."""

    def __init__(self):
        super().__init__()
        self.log = []

    def read_bytes(self, addr, size):
        self.log.append(("read", addr, size))
        return super().read_bytes(addr, size)

    def write_bytes(self, addr, data):
        self.log.append(("write", addr, bytes(data)))
        super().write_bytes(addr, data)


def executed(module, function, args):
    """The non-phi instructions the lockstep worker executes, in program
    order.  The worker may issue a block's independent instructions out
    of order, so each run of one block entry, up to its terminator or a
    call, is put back in block order."""
    runs = []
    execute = HwWorker._execute

    def record(worker, frame, inst, cycle):
        if not isinstance(inst, Phi):
            last = runs[-1][-1] if runs else None
            if last is None or last.parent is not inst.parent or (
                last.is_terminator or isinstance(last, Call)
            ):
                runs.append([])
            runs[-1].append(inst)
        return execute(worker, frame, inst, cycle)

    system = AcceleratorSystem(module, Memory(), engine="lockstep")
    with mock.patch.object(HwWorker, "_execute", record):
        system.run(function, list(args))
    return [
        inst for run_ in runs
        for inst in sorted(run_, key=run_[0].parent.instructions.index)
    ]


@pytest.mark.parametrize("source, optimise, entry, args", [
    (LOOP_SRC, False, "twice", [3]),  # stores between the calls
    (NESTED, True, "f", [7]), (NESTED, False, "f", [7]),
    (TWO_EXITS, True, "f", [7]), (TWO_EXITS, False, "f", [7]),
], ids=["calls", "nested", "nested-unoptimised", "two-exits", "two-exits-unoptimised"])
def test_max_steps_stops_on_the_same_instruction_at_every_limit(source, optimise, entry, args):
    """At every limit the run raises on step ``limit + 1``, having made
    the accesses of the reference's first ``limit`` instructions."""
    module = module_of(source, optimise)
    order = executed(module, entry, args)
    total = len(order)
    memory = _LoggingMemory()
    interp = Interpreter(module, memory)
    memory.log.clear()  # the globals' initialisers
    full = run(interp, entry, args)
    accesses = memory.log
    assert total > 100 and full["steps"] == total and full["error"] is None
    assert len(accesses) == sum(isinstance(i, (Load, Store)) for i in order)
    for limit in range(1, total + 1):
        memory = _LoggingMemory()
        interp = Interpreter(module, memory, max_steps=limit)
        memory.log.clear()  # the globals' initialisers
        outcome = run(interp, entry, args)
        made = sum(isinstance(i, (Load, Store)) for i in order[:limit])
        assert memory.log == accesses[:made], limit
        if limit < total:
            assert outcome["error"] == f"exceeded max_steps={limit}"
            assert outcome["steps"] == limit + 1
        else:
            assert outcome == full


def test_a_fault_inside_a_loop_leaves_the_state_before_it():
    """A trap mid-loop: the reference's error, the stores before it done
    and none after, and ``steps`` counted through the faulting run.  (The
    worker may issue the division before the store lands, so its image is
    no reference here.)"""
    module = module_of(
        "int g[8]; int f(int n) { int s = 0;"
        " for (int i = 0; i < 8; i++) { g[i] = i; s += 100 / (n - i); }"
        " return s; }"
    )
    generator, reference = both(module, "f", [5])
    assert generator["error"] == reference["error"] == "integer division by zero"
    assert generator["steps"] == 61
    interp = Interpreter(module)
    with pytest.raises(InterpError, match="integer division by zero"):
        interp.call("f", [5])
    g = interp.global_addresses["g"]
    assert [interp.memory.load(g + 4 * i, I32) for i in range(8)] == [0, 1, 2, 3, 4, 5, 0, 0]


class TestPhis:
    SWAP = (
        "int f(int n) { int a = 1; int b = 2;"
        " for (int i = 0; i < n; i++) { int t = a; a = b; b = t; }"
        " return a * 10 + b; }"
    )
    #: ``a`` takes last iteration's ``b``: one phi's source is another phi.
    ROTATE = (
        "int f(int n) { int a = 0; int b = 1; int c = 2;"
        " for (int i = 0; i < n; i++) { a = b; b = c; c = c + a; }"
        " return a * 10000 + b * 100 + c; }"
    )

    @pytest.mark.parametrize("source", [SWAP, ROTATE], ids=["swap", "phi-fed-by-phi"])
    def test_an_edge_moves_its_phis_as_one_parallel_copy(self, source):
        module = module_of(source)
        phis = [i for i in module.get_function("f").instructions() if isinstance(i, Phi)]
        assert any(isinstance(v, Phi) and v.parent is p.parent
                   for p in phis for v in p.operands), "no phi reads a phi in the IR"
        for n in range(6):
            generator, reference = both(module, "f", [n])
            assert generator == reference and generator["error"] is None
        assert Interpreter(module_of(self.SWAP)).call("f", [3]) == 21


#: A run's step count in a program's text.
STEP_LINE = re.compile(r" *steps \+= (\d+)$", re.M)


class TestCalls:
    SOURCE = (
        "int g(int x) { return x + 1; }"
        "int h(int a) { return g(a) * 2 + g(a + 1); }"
        "int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }"
    )

    def test_a_call_in_the_middle_of_a_block_starts_a_run(self, texts):
        module = module_of(self.SOURCE)
        (block,) = module.get_function("h").blocks
        calls = [i for i in block.instructions if isinstance(i, Call)]
        assert len(calls) == 2 and calls[-1] is not block.instructions[-2]
        interp = Interpreter(module)
        assert interp.call("h", [5]) == (5 + 1) * 2 + (5 + 2)
        # One text per function: h's block counts its steps as three runs.
        (h_text,) = [text for text in texts if text.count("yield programs[") == 2]
        lengths = [int(n) for n in STEP_LINE.findall(h_text)]
        assert len(lengths) == 3 and sum(lengths) == len(block.instructions)
        generator, reference = both(module, "h", [5])
        assert generator == reference

    def test_recursion_uses_the_explicit_stack(self, monkeypatch):
        """5 000 calls deep.  The lockstep worker keeps its frames in a
        list, so the reference runs past the hardware's call depth once
        that is raised above this test's."""
        module = module_of(self.SOURCE)
        depth = 5 * sys.getrecursionlimit()
        assert 5000 <= depth < interpreter_module.MAX_CALL_DEPTH
        monkeypatch.setattr(worker_module, "MAX_CALL_DEPTH", depth + 1)
        generator, reference = both(module, "down", [depth])
        assert generator == reference
        assert generator["value"] == repr(depth) and generator["error"] is None

    def test_unbounded_recursion_stops_at_the_call_depth(self):
        """``f`` recurses without end: the run raises a typed error at
        :data:`MAX_CALL_DEPTH` calls, long before its step budget, and its
        stack never grows past that (~340 B a call)."""
        module = module_of("int f(int n) { return f(n + 1) + 1; }")
        depth = interpreter_module.MAX_CALL_DEPTH
        interp = Interpreter(module)
        tracemalloc.start()
        try:
            with pytest.raises(InterpError, match=f"^call depth exceeded {depth}$"):
                interp.call("f", [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert interp.steps == 2 * depth  # each call: an add and the call
        assert peak < 1000 * depth  # bytes: the whole stack, not one budget's worth
        with pytest.raises(InterpError, match="already running a call"):
            interp.call("f", [0])

    def test_already_running_and_reuse_after_completion(self):
        module = module_of(self.SOURCE)
        interp = Interpreter(module, max_steps=10)
        with pytest.raises(InterpError, match="exceeded max_steps=10"):
            interp.call("down", [50])
        with pytest.raises(InterpError, match="already running a call"):
            interp.call("g", [1])
        fresh = Interpreter(module)
        assert fresh.call("g", [1]) == 2 and fresh.call("h", [1]) == 7


def _two_block_function(make_fault):
    """``f(a, p)``: store 7 to ``p``, then the faulting instruction."""
    m = Module("m")
    f = m.new_function("f", FunctionType(I32, [I32, PointerType(I32)]), ["a", "p"])
    b = IRBuilder(f.new_block("entry"))
    b.store(Constant(I32, 7), f.args[1])
    b.ret(make_fault(m, f, b))
    return m


def _divide_by_zero(m, f, b):
    return b.binop("sdiv", f.args[0], Constant(I32, 0))


def _undefined_value(m, f, b):
    later = f.new_block("later")  # never entered
    orphan = IRBuilder(later).binop("mul", f.args[0], f.args[0], name="orphan")
    IRBuilder(later).ret(orphan)
    return b.binop("add", f.args[0], orphan)


@pytest.mark.parametrize("fault,message", [
    (_divide_by_zero, "integer division by zero"),
    (_undefined_value, "use of undefined value %orphan in @f"),
], ids=["division-by-zero", "undefined-value"])
def test_faults_raise_when_run_not_when_rendered(fault, message):
    module = _two_block_function(fault)
    memory = Memory()
    interp = Interpreter(module, memory)
    addr = memory.malloc(4)
    interp._programs[module.get_function("f")]  # rendering is not running
    with pytest.raises(InterpError) as info:
        interp.call("f", [1, addr])
    assert str(info.value) == message
    assert memory.load(addr, I32) == 7  # the store before the fault ran
    assert interp.steps == 3  # the run counts on entry
    # A run stopped at max_steps raises the same error once it reaches it.
    for limit, error in ((1, "exceeded max_steps=1"), (2, message)):
        interp = Interpreter(module, memory, max_steps=limit)
        with pytest.raises(InterpError) as info:
            interp.call("f", [1, addr])
        assert (str(info.value), interp.steps) == (error, limit + 1)


def test_memory_subclass_sees_every_access_as_the_reference_does():
    module = module_of(LOOP_SRC, optimise=False)
    counts = []
    for call in CALLS:
        memory = _CountingMemory()
        interp = Interpreter(module, memory)
        memory.reads = memory.writes = 0  # drop global-initialiser traffic
        call(interp, "twice", [12])
        counts.append((memory.reads, memory.writes))
    assert counts[0] == counts[1] and min(counts[0]) > 50


class TestChannels:
    def module(self):
        m = Module("m")
        chan = Channel(0, "c", I32, 0, 1)
        f = m.new_function("f", FunctionType(I32, [I32]), ["a"])
        b = IRBuilder(f.new_block("entry"))
        first = b.block.append(Consume(chan, I32))
        total = b.binop("add", first, f.args[0])
        second = b.block.append(Consume(chan, I32, Constant(I32, 4)))
        b.block.append(Produce(chan, Constant(I32, 0), total))
        b.ret(b.binop("mul", total, second))
        return m, chan

    def test_consume_and_produce(self):
        m, chan = self.module()
        channels = ChannelIO()
        channels.produce(chan, 0, 5)
        channels.produce(chan, 0, 3)
        interp = Interpreter(m, channel_io=channels)
        outcome = run(interp, "f", [10])
        assert (outcome["value"], outcome["steps"]) == ("45", 6)
        assert channels.queue_snapshot() == {(0, 0): (15,)}

    def test_empty_channel_parks_without_counting_the_consume(self):
        m, chan = self.module()
        channels = ChannelIO()
        channels.produce(chan, 0, 5)
        outcome = run(Interpreter(m, channel_io=channels), "f", [10])
        assert "blocked on an empty channel" in outcome["error"]
        assert outcome["steps"] == 2

    @staticmethod
    def call_then_consume():
        """``f(a) = g(a) + consume``, the consume right after the call in
        one block: the run after the call is the consume's run."""
        m = Module("m")
        chan = Channel(0, "c", I32, 0, 1)
        g = m.new_function("g", FunctionType(I32, [I32]), ["a"])
        IRBuilder(g.new_block("entry")).ret(g.args[0])
        f = m.new_function("f", FunctionType(I32, [I32]), ["a"])
        b = IRBuilder(f.new_block("entry"))
        returned = b.call(g, [f.args[0]])
        b.ret(b.binop("add", returned, b.block.append(Consume(chan, I32))))
        return m, chan

    def test_a_consume_right_after_a_call_counts_its_run_once(self):
        """Steps: the call, ``g``'s return, then the consume, the add and
        the return, whether the token is queued or the task parks for it,
        and at every ``max_steps`` the run stops on step ``limit + 1``."""
        m, chan = self.call_then_consume()
        queued = ChannelIO()
        queued.produce(chan, 0, 5)
        interp = Interpreter(m, channel_io=queued)
        assert (interp.call("f", [1]), interp.steps) == (6, 5)
        fed = ChannelIO()
        parked = Interpreter(m, channel_io=fed)
        parked.enter("f", [1])
        assert parked.resume() is False and parked.steps == 2
        assert parked.resume() is False and parked.steps == 2
        fed.produce(chan, 0, 5)
        assert parked.resume() is True
        assert (parked._return_value, parked.steps) == (6, 5)
        for limit in range(1, 5):
            channels = ChannelIO()
            channels.produce(chan, 0, 5)
            interp = Interpreter(m, channel_io=channels, max_steps=limit)
            with pytest.raises(InterpError, match=f"^exceeded max_steps={limit}$"):
                interp.call("f", [1])
            assert interp.steps == limit + 1
            # The consume ran only if the limit reached it.
            assert channels.queue_snapshot() == ({(0, 0): (5,)} if limit < 3 else {})
        # A limit inside the consume's run: parked with nothing counted,
        # then stopped on its step once the token comes.
        fed = ChannelIO()
        stopped = Interpreter(m, channel_io=fed, max_steps=3)
        stopped.enter("f", [1])
        assert stopped.resume() is False and stopped.steps == 2
        fed.produce(chan, 0, 5)
        with pytest.raises(InterpError, match="^exceeded max_steps=3$"):
            stopped.resume()
        assert stopped.steps == 4 and fed.queue_snapshot() == {}

    @staticmethod
    def task_calling_a_consuming_loop():
        """``task(n) = 3 * g(n) + 1`` where ``g`` sums ``n`` tokens of a
        channel in a loop: every consume is two calls and a loop deep."""
        m = Module("m")
        chan = Channel(0, "c", I32, 0, 1)
        g = m.new_function("g", FunctionType(I32, [I32]), ["n"])
        entry, head, body, done = (g.new_block(name) for name in ("entry", "head", "body", "done"))
        IRBuilder(entry).jump(head)
        h = IRBuilder(head)
        i, s = h.phi(I32, "i"), h.phi(I32, "s")
        h.cond_branch(h.icmp("slt", i, g.args[0]), body, done)
        b = IRBuilder(body)
        token = b.block.append(Consume(chan, I32))
        s_next = b.binop("add", s, token)
        i_next = b.binop("add", i, Constant(I32, 1))
        b.jump(head)
        i.add_incoming(Constant(I32, 0), entry)
        i.add_incoming(i_next, body)
        s.add_incoming(Constant(I32, 0), entry)
        s.add_incoming(s_next, body)
        IRBuilder(done).ret(s)
        task = m.new_function("task", FunctionType(I32, [I32]), ["n"])
        t = IRBuilder(task.new_block("entry"))
        total = t.call(g, [task.args[0]])
        t.ret(t.binop("add", t.binop("mul", total, Constant(I32, 3)), Constant(I32, 1)))
        return m, chan

    def test_a_task_parks_inside_a_loop_of_a_called_function(self):
        """Fed one token per resume, the task parks at every consume of
        ``g``'s loop and ends with the value and steps of a run that finds
        every token queued."""
        m, chan = self.task_calling_a_consuming_loop()
        tokens = [7, -2, 40, 5, 11]
        queued = ChannelIO()
        for token in tokens:
            queued.produce(chan, 0, token)
        unparked = Interpreter(m, channel_io=queued)
        assert unparked.call("task", [len(tokens)]) == 3 * sum(tokens) + 1
        fed = ChannelIO()
        parked = Interpreter(m, channel_io=fed)
        parked.enter("task", [len(tokens)])
        parks = 0
        for token in tokens:
            assert parked.resume() is False  # parked on the empty queue
            assert parked.resume() is False  # ... and still there
            parks += 1
            fed.produce(chan, 0, token)
        assert parked.resume() is True
        assert parks == len(tokens)
        assert parked._return_value == unparked._return_value
        assert parked.steps == unparked.steps


@pytest.fixture
def texts(monkeypatch):
    """Every text the generator compiles while the test runs."""
    seen = []
    compiled = interpreter_module._text_code

    def spy(text):
        seen.append(text)
        return compiled(text)

    monkeypatch.setattr(interpreter_module, "_text_code", spy)
    return seen


#: A C source whose every identifier is a Python keyword, builtin or dunder.
HOSTILE_NAMES = """
typedef struct lambda { int yield; double __class__; struct lambda* None; } class;
void* malloc(int size);
double __import__[4] = {1.5, 2.5, 1e300, -0.0};
int def(int pass, int __builtins__) {
    class* exec = (class*)malloc(sizeof(class));
    exec->yield = pass * 3 + __builtins__;
    exec->__class__ = __import__[pass & 3] * 1e300 * 1e300;
    exec->None = 0;
    int import = 0;
    for (int global = 0; global < pass; global++) import += exec->yield ^ global;
    return import + (exec->__class__ > 1.0);
}
int eval(int raise) { return def(raise, 11) + def(raise + 1, 7); }
"""

#: A C source whose every identifier is spelled like a name the generated
#: worker text uses (the check below allows those, so a leak would pass
#: it): a collision shows up as a wrong value or an error instead.
HOSTILE_WORKER_NAMES = """
typedef struct state { int done; int regs; struct state* worker; } state;
void* malloc(int size);
int cache[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int frames(int addr, int cycle) { return cache[addr & 7] * cycle + addr; }
int progress(int in, int True) {
    state* system = (state*)malloc(sizeof(state));
    system->done = in;
    system->regs = True;
    system->worker = system;
    int False = 0;
    int regs = 1;
    for (int worker = 0; worker < in; worker++) {
        int memory = frames(worker, system->worker->regs) ^ system->done;
        False += memory * regs;
        regs = 1 - regs;
        cache[worker & 7] = False;
    }
    return False + cache[in & 7];
}
int caller(int frame) { return progress(frame, 3) + progress(frame + 1, 5); }
"""

#: The same for the names of the interpreter's programs.
HOSTILE_PROGRAM_NAMES = """
int env[4] = {2, 7, 1, 8};
int interp(int steps, int limit) {
    int got = 0;
    for (int at = 0; at < steps; at++) got += (at ^ limit) + env[at & 3];
    env[steps & 3] = got;
    return got;
}
int programs(int fn) { return interp(fn, 3) + interp(fn + 1, 5); }
"""

#: Each hostile source and the function run on it.
HOSTILE = [(HOSTILE_NAMES, "eval"), (HOSTILE_WORKER_NAMES, "caller"),
           (HOSTILE_PROGRAM_NAMES, "programs")]
HOSTILE_IDS = ["python", "worker", "program"]

GENERATED_NAME = re.compile(
    # The interpreter's programs: the generator, its trampoline and the
    # step budget, the block cursor, a parked consume, inline memory access:
    r"def|fn|interp|programs|_programs|steps|max_steps|limit|try|except|raise|return"
    r"|yield|while|True|if|else|not|is|None|at|continue|break|got|env|or|and|in"
    r"|memory|data|_data|top|_check|bytes_read|bytes_written|raw|pass"
    r"|cycles|moves|counts|[vKF]\d+"
    # ... and the hardware worker's generator: what it binds once, its
    # clock and the FSM's block cursor, the blocking-op protocol, memory
    # access and completion, calls and returns, and the timing rule's fields:
    r"|worker|system|stats|ops|ops_executed|cache|push|pop|join|retire|close"
    r"|_push|_pop|_join|_retire|_close|liveout_regs|liveouts|trace|sink|name|_limit"
    r"|worker_id|load|store|plain|global_addresses|fifo_for"
    r"|from|cycle|now|False|addr|access|loads|stores|_waiting_until"
    r"|fork_worker|alloc_object|site|caller|depth|done|worker_finished|return_value"
    r"|_trace|_sink|worker_span|worker_state|last_category|wait_category"
    r"|synced_until|next_due|active_cycles|mem_stall_cycles"
)


def assert_generated_only(texts):
    """Every NAME a text holds is generated, every NUMBER an ``int``."""
    for text in texts:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.NAME:
                assert GENERATED_NAME.fullmatch(token.string), text
            elif token.type == tokenize.NUMBER:  # ints only: floats go by name
                assert re.fullmatch(r"\d+|0xFFFFFFFF", token.string), text
            else:
                assert token.type != tokenize.STRING, text


@pytest.mark.parametrize("optimise", [True, False])
@pytest.mark.parametrize("source, entry", HOSTILE, ids=HOSTILE_IDS)
def test_generated_text_holds_nothing_from_the_source(source, entry, optimise, texts):
    module = module_of(source, optimise)
    generator, reference = both(module, entry, [6])
    assert generator == reference and generator["error"] is None
    assert len(texts) >= 2
    assert_generated_only(texts)
    texts.clear()
    assert run_on_mips(module, entry, [6], Memory()).return_value == int(generator["value"])
    assert any("interp.cycles += " in text for text in texts)
    assert_generated_only(texts)
    texts.clear()
    assert profile_call(module, entry, [6]).return_value == int(generator["value"])
    assert any("interp.counts[" in text for text in texts)
    assert_generated_only(texts)
    texts.clear()
    # ... and the start of a run cut short by max_steps.
    run(Interpreter(module, max_steps=generator["steps"] // 2), entry, [6])
    assert any(text.startswith("def fn(interp, env):") for text in texts)
    assert_generated_only(texts)


def test_each_function_runs_as_one_generator(texts):
    """em3d's set-up (a loop walking a linked list, calls inside loops)
    renders one generator function per function it enters: no block or
    loop runs as a Python call of its own."""
    spec = next(s for s in ALL_KERNELS if s.name == "em3d")
    module = module_of(spec.source, name=spec.name)
    interp = Interpreter(module)
    interp.call(spec.setup_function, list(SMOKE_SETUP_ARGS[spec.name]))
    entered = set(interp._programs)
    assert module.get_function("build_e_list") in entered
    assert all(isgeneratorfunction(program) for program in interp._programs.values())
    assert len(texts) == len(entered)


COST_LINE = re.compile(r" *interp\.(cycles|moves) \+= [1-9]\d*")
COUNT_LINE = re.compile(r" *interp\.counts\[\d+\] \+= 1")


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
def test_costs_only_add_counter_lines(spec, texts):
    """A costed or a profiled function renders to its plain text plus
    ``+=`` lines, and rendering either first leaves the plain text
    byte-identical."""
    module = module_of(spec.source, name=spec.name)
    rendered = []
    for interp in (
        Interpreter(module), Interpreter(module, costs=_costs(module)),
        Interpreter(module, counted=[]), Interpreter(module),
    ):
        texts.clear()
        for function in module.functions.values():
            if not function.is_declaration:
                interp._programs[function]
        rendered.append(list(texts))
    oracle, costed, profiled, again = rendered
    assert len(oracle) == len(costed) == len(profiled) >= 5 and again == oracle
    for extra, texts_ in ((COST_LINE, costed), (COUNT_LINE, profiled)):
        for plain, text in zip(oracle, texts_):
            lines = text.splitlines()
            assert [line for line in lines if not extra.fullmatch(line)] == plain.splitlines()
    assert all(" += " in text for text in costed)
    assert sum("interp.counts[" in text for text in profiled) >= 3


def run_worker(module, entry, args, engine):
    """The report and every worker of one hardware run of ``entry``."""
    system = AcceleratorSystem(module, Memory(), engine=engine)
    workers = []
    register = system._register_worker

    def remember(worker):
        workers.append(worker)
        register(worker)

    system._register_worker = remember
    return system, system.run(entry, args), workers


@pytest.mark.parametrize("optimise", [True, False])
@pytest.mark.parametrize("source, entry", HOSTILE, ids=HOSTILE_IDS)
def test_the_worker_text_holds_nothing_from_the_source(source, entry, optimise, texts):
    module = module_of(source, optimise)
    expected = Interpreter(module).call(entry, [6])
    texts.clear()
    reports = {}
    for engine in ("event", "specialized"):
        texts.clear()
        _, report, _ = run_worker(module, entry, [6], engine)
        reports[engine] = report.to_dict()
    assert reports["specialized"] == reports["event"]
    assert reports["event"]["return_value"] == expected
    assert len(texts) == sum(not f.is_declaration for f in module.functions.values())
    assert any("yield from" in text for text in texts)
    assert_generated_only(texts)


def test_a_process_compiles_each_text_once():
    memo = interpreter_module._text_code
    assert memo.cache_info().maxsize is not None  # bounded
    module = module_of(LOOP_SRC)
    first = run(Interpreter(module), "twice", [5])
    misses = memo.cache_info().misses
    again = run(Interpreter(module_of(LOOP_SRC + "/* another module */")), "twice", [5])
    assert again == first
    assert memo.cache_info().misses == misses  # every text was a hit


def test_programs_reach_neither_decoder_nor_interpreter():
    module = module_of(LOOP_SRC)
    interp = Interpreter(module)
    interp.call("twice", [5])
    programs = interp._programs
    assert len(programs) == 2
    for program in programs.values():
        assert "fn" not in program.__globals__
        assert program.__globals__["__builtins__"] == {}
        held = program.__globals__.values()
        assert not any(v is interp or v is interp.memory or v is programs
                       or v is programs.code for v in held)


def test_worker_code_reaches_no_worker_system_or_memory():
    module = module_of(HOSTILE_NAMES)
    system, _, workers = run_worker(module, "eval", [6], "specialized")
    forbidden = (HwWorker, AcceleratorSystem, Memory)
    rendered = [
        specialized_for(function).generator
        for function in module.functions.values() if not function.is_declaration
    ]
    assert len(rendered) == 2 and workers
    for function in rendered:
        assert function.__code__.co_filename == "<generated>"
        assert "fn" not in function.__globals__
        assert function.__globals__["__builtins__"] == {}
        for value in function.__globals__.values():
            for held in value if type(value) is tuple else (value,):
                assert not isinstance(held, forbidden), (function, held)
                assert held is not system.memory


def test_two_threads_on_one_module_give_the_serial_bytes():
    spec = next(s for s in ALL_KERNELS if s.name == "ks")
    module = module_of(spec.source, name=spec.name)
    serial = run(Interpreter(module), spec.setup_function, spec.setup_args)
    results = [None, None]

    def work(slot):
        results[slot] = run(Interpreter(module), spec.setup_function, spec.setup_args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial, serial] and serial["error"] is None


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
def test_the_mips_model_counts_the_reference_instructions(spec):
    """The soft-core model's instruction count, ``steps`` plus the phi
    moves its costs render, is every op the lockstep worker executes
    (phis included), and its return value the worker's."""
    module = module_of(spec.source, name=spec.name)
    args = list(SMOKE_SETUP_ARGS[spec.name])
    mips = run_on_mips(module, spec.setup_function, args, Memory())
    report = AcceleratorSystem(module, Memory(), engine="lockstep").run(
        spec.setup_function, args
    )
    ops = sum(n for stats in report.worker_stats.values() for n in stats.ops_executed.values())
    assert (mips.instructions, mips.return_value) == (ops, report.return_value)
    assert mips.cycles > mips.instructions
