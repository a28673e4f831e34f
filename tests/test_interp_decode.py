"""Contracts of the interpreter's rendered programs.

Rendering must be unobservable except for speed: the steps the lockstep
hardware worker executes, a parked frame resumed where it parked, no
reference cycle through the interpreter (the image and its rendered
program must die by refcount), no stale program after a transform, no
memory fast path that bypasses a ``Memory`` subclass, and an error only
when the faulty instruction runs.
"""

import gc
import weakref

import pytest

from repro.errors import InterpError
from repro.frontend import compile_c
from repro.hw import AcceleratorSystem
from repro.interp import ChannelIO, Interpreter, Memory, profile_call
from repro.ir import (
    Call,
    Channel,
    Constant,
    Consume,
    Function,
    FunctionType,
    I32,
    IRBuilder,
    Load,
    Module,
    ParallelFork,
    ParallelJoin,
    Phi,
    PointerType,
    RetrieveLiveout,
    Store,
)
from repro.ir.instructions import Instruction
from repro.kernels import ALL_KERNELS
from repro.transforms import optimize_module
from repro.vsim.cosim import SMOKE_SETUP_ARGS

#: ``(setup steps, check steps)`` at ``SMOKE_SETUP_ARGS`` scale, captured
#: from the tree-walking interpreter the rendered code replaced; the lockstep
#: worker executes as many non-phi instructions.
PINNED_STEPS = {
    "K-means": (1376, 282),
    "Hash-indexing": (1317, 155),
    "ks": (1666, 1491),
    "em3d": (4230, 136),
    "1D-Gaussblur": (2861, 1322),
    "bfs": (784, 135),
    "hash-join": (967, 1870),
    "spmv": (681, 77),
    "top-k": (420, 59),
}

LOOP_SRC = (
    "int g[8];"
    "int f(int n) {"
    "  int s = 0;"
    "  for (int i = 0; i < n; i++) { g[i & 7] = i; s += g[(i + 3) & 7]; }"
    "  return s; }"
    "int twice(int n) { return f(n) + f(n); }"
    "int tri(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
)


def lockstep(interp, function, args):
    """What ``interp.call`` returns, from the independent reference: the
    lockstep hardware worker runs ``function`` on ``interp``'s image, and
    ``interp.steps`` advances by the non-phi instructions it executed."""
    system = AcceleratorSystem(
        interp.module, interp.memory, global_addresses=interp.global_addresses,
        engine="lockstep",
    )
    report = system.run(function, list(args))
    interp.steps += sum(
        n for stats in report.worker_stats.values()
        for opcode, n in stats.ops_executed.items() if opcode != "phi"
    )
    return report.return_value


def compiled(src=LOOP_SRC, name="module"):
    module = compile_c(src, name)
    optimize_module(module)
    return module


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
def test_step_counts_pinned(spec):
    module = compiled(spec.source, spec.name)
    seen = []
    for call in (Interpreter.call, lockstep):
        setup = Interpreter(module)
        call(setup, spec.setup_function, SMOKE_SETUP_ARGS[spec.name])
        check = Interpreter(
            module, setup.memory, global_addresses=setup.global_addresses
        )
        call(check, spec.check_function, [])
        seen.append((setup.steps, check.steps, setup.memory.snapshot()))
    assert seen[0] == seen[1]
    assert seen[0][:2] == PINNED_STEPS[spec.name]


def test_every_kernel_is_pinned():
    assert set(PINNED_STEPS) == {s.name for s in ALL_KERNELS}


@pytest.mark.parametrize("max_steps", [200_000_000, 50], ids=["finished", "stopped"])
def test_interpreter_and_memory_die_by_refcount(max_steps):
    """No decoded closure may hold the interpreter or its memory image,
    nor may the calls a run left on its stack when it raised."""
    module = compiled()
    gc.collect()
    gc.disable()
    try:
        interp = Interpreter(module, max_steps=max_steps)
        try:
            interp.call("twice", [20])
        except InterpError:
            assert interp._stack  # still busy with that call
        interp_ref = weakref.ref(interp)
        memory_ref = weakref.ref(interp.memory)
        del interp
        assert interp_ref() is None
        assert memory_ref() is None
    finally:
        gc.enable()


class TestNoStaleDecode:
    def test_reinterpret_after_optimize_on_same_module(self):
        module = compile_c(LOOP_SRC)  # unoptimised: allocas, loads, stores
        before = Interpreter(module)
        expected = before.call("f", [50])
        optimize_module(module)
        after = Interpreter(module)
        assert after.call("f", [50]) == expected
        assert after.steps < before.steps

    def test_one_interpreter_two_functions_in_sequence(self):
        module = compiled()
        interp = Interpreter(module)
        assert interp.call("tri", [10]) == 45
        tri_steps = interp.steps
        assert interp.call("f", [16]) == Interpreter(module).call("f", [16])
        f_steps = interp.steps - tri_steps
        assert interp.call("tri", [10]) == 45
        assert interp.steps == 2 * tri_steps + f_steps


class _CountingMemory(Memory):
    def __init__(self):
        super().__init__()
        self.reads = 0
        self.writes = 0

    def read_bytes(self, addr, size):
        self.reads += 1
        return super().read_bytes(addr, size)

    def write_bytes(self, addr, data):
        self.writes += 1
        super().write_bytes(addr, data)


def test_memory_subclass_sees_every_access():
    """One read per load and one write per store the profile counts."""
    module = compiled()  # ``g`` has no initialiser to write
    memory = _CountingMemory()
    profile = profile_call(module, "twice", [24], memory)
    instructions = list(module.get_function("f").instructions())
    loads = sum(profile.count(i) for i in instructions if isinstance(i, Load))
    stores = sum(profile.count(i) for i in instructions if isinstance(i, Store))
    assert loads > 0 and stores > 0
    assert (memory.reads, memory.writes) == (loads, stores)


class TestHooksAndLimits:
    def test_max_steps_raises_on_step_n_plus_one(self):
        module = compiled()
        probe = Interpreter(module)
        probe.call("f", [10])
        total = probe.steps
        exact = Interpreter(module, max_steps=total)
        exact.call("f", [10])
        assert exact.steps == total
        short = Interpreter(module, max_steps=total - 1)
        with pytest.raises(InterpError, match=f"exceeded max_steps={total - 1}"):
            short.call("f", [10])
        assert short.steps == total

    def test_a_parked_frame_resumes_at_its_consume(self):
        """Nothing before the consume runs twice, and the steps equal an
        unparked run's."""
        m = Module("m")
        chan = Channel(0, "c", I32, 0, 1)
        f = m.new_function("f", FunctionType(I32, [PointerType(I32)]), ["p"])
        b = IRBuilder(f.new_block("entry"))
        b.store(Constant(I32, 1), f.args[0])
        got = b.block.append(Consume(chan, I32))
        b.store(got, f.args[0])
        b.ret(b.binop("add", got, Constant(I32, 1)))
        memory = _CountingMemory()
        addr = memory.malloc(4)
        io = ChannelIO()
        parked = Interpreter(m, memory, channel_io=io)
        parked.enter("f", [addr])
        with pytest.raises(InterpError, match="already running"):
            parked.enter("f", [addr])
        assert parked.resume() is False
        assert parked.resume() is False  # still parked on the consume
        assert (memory.writes, parked.steps) == (1, 1)
        io.produce(chan, 0, 7)
        io.produce(chan, 0, 8)
        assert parked.resume() is True
        assert memory.writes == 2 and memory.load(addr, I32) == 7
        assert io.queue_snapshot() == {(0, 0): (8,)}
        unparked_io = ChannelIO()
        unparked_io.produce(chan, 0, 7)
        unparked = Interpreter(m, Memory(), channel_io=unparked_io)
        assert unparked.call("f", [unparked.memory.malloc(4)]) == 8
        assert parked.steps == unparked.steps == 5
        # A step budget that ends inside the consume's run parks
        # there too, and raises only once the consume can run.
        capped_io = ChannelIO()
        capped = Interpreter(m, Memory(), channel_io=capped_io, max_steps=2)
        capped.enter("f", [capped.memory.malloc(4)])
        assert capped.resume() is False and capped.steps == 1
        capped_io.produce(chan, 0, 7)
        with pytest.raises(InterpError, match="exceeded max_steps=2"):
            capped.resume()
        assert capped.steps == 3

    def test_phis_of_one_edge_are_read_before_any_is_written(self):
        module = compiled(
            "int f(int n) { int a = 1; int b = 2;"
            " for (int i = 0; i < n; i++) { int t = a; a = b; b = t; }"
            " return a * 10 + b; }"
        )
        phis = [i for i in module.get_function("f").instructions()
                if isinstance(i, Phi)]
        assert any(isinstance(v, Phi) and v.parent is p.parent
                   for p in phis for v in p.operands), "no swap in the IR"
        assert Interpreter(module).call("f", [0]) == 12
        assert Interpreter(module).call("f", [1]) == 21
        assert Interpreter(module).call("f", [4]) == 12
        assert lockstep(Interpreter(module), "f", [3]) == 21

    def test_undefined_value_still_names_value_and_function(self):
        m = Module("m")
        f = m.new_function("f", FunctionType(I32, [I32]), ["a"])
        entry = IRBuilder(f.new_block("entry"))
        later = f.new_block("later")
        use = entry.binop("add", f.args[0], f.args[0])
        entry.ret(use)
        # Make the add read a value defined only in a block never entered.
        orphan = IRBuilder(later).binop("mul", f.args[0], f.args[0], name="orphan")
        IRBuilder(later).ret(orphan)
        use.replace_operand(f.args[0], orphan)
        with pytest.raises(InterpError, match=r"undefined value %orphan in @f"):
            Interpreter(m).call("f", [1])


class _Mystery(Instruction):
    opcode = "mystery"

    def __init__(self):
        super().__init__(I32, [])


@pytest.mark.parametrize("make,message", [
    (_Mystery, "cannot interpret opcode mystery"),
    (lambda: Call(Function("g", FunctionType(I32, []), []), []),
     "call to undefined function @g"),
    (lambda: RetrieveLiveout(3, I32), "liveout #3 never stored"),
    (lambda: ParallelJoin(0), "parallel_join executed without a fork handler"),
    (lambda: Phi(I32), "phi encountered outside a block entry"),
], ids=["unknown-opcode", "undefined-callee", "liveout", "join", "entry-phi"])
def test_bad_instruction_raises_when_executed_not_when_rendered(make, message):
    m = Module("m")
    f = m.new_function("f", FunctionType(I32, [I32]), ["a"])
    b = IRBuilder(f.new_block("entry"))
    b.binop("add", f.args[0], f.args[0])
    b.block.append(make())
    b.ret(f.args[0])
    interp = Interpreter(m, channel_io=ChannelIO())
    interp._programs[f]  # renders the whole function: must not raise
    with pytest.raises(InterpError, match=message):
        interp.call("f", [1])
    assert interp.steps == 3  # the run counts on entry
    # A run stopped at max_steps raises the same error once it reaches it.
    for limit, error in ((1, "exceeded max_steps=1"), (2, message)):
        interp = Interpreter(m, channel_io=ChannelIO(), max_steps=limit)
        with pytest.raises(InterpError, match=error):
            interp.call("f", [1])
        assert interp.steps == limit + 1


def test_fork_without_handler_raises():
    m = Module("m")
    task = m.new_function("task", FunctionType(I32, [I32]), ["a"])
    IRBuilder(task.new_block("entry")).ret(task.args[0])
    f = m.new_function("f", FunctionType(I32, [I32]), ["a"])
    b = IRBuilder(f.new_block("entry"))
    b.block.append(ParallelFork(0, task, [f.args[0]]))
    b.ret(f.args[0])
    with pytest.raises(InterpError, match="parallel_fork executed without"):
        Interpreter(m).call("f", [1])
