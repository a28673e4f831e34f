"""Tests for the interpreter's manual driving interface (the cosim
substrate): ``enter()`` pushes a call, ``resume()`` runs it until it
finishes or parks on an empty channel."""

import pytest

from repro.errors import InterpError
from repro.frontend import compile_c
from repro.interp import ChannelIO, Interpreter, Memory
from repro.ir import Channel, Consume, FunctionType, I32, IRBuilder, Module
from repro.transforms import optimize_module


def consume_and_return():
    m = Module("m")
    chan = Channel(0, "c", I32, 0, 1)
    f = m.new_function("f", FunctionType(I32, []), [])
    b = IRBuilder(f.new_block("entry"))
    got = b.block.append(Consume(chan, I32))
    b.ret(got)
    return m, chan


class TestStepping:
    def test_step_until_done(self):
        module = compile_c("int f(int a) { return a * 2 + 1; }")
        optimize_module(module)
        interp = Interpreter(module)
        interp.enter("f", [20])
        assert interp.resume() is True
        assert interp._return_value == 41
        called = Interpreter(module)
        assert called.call("f", [20]) == 41
        assert interp.steps == called.steps >= 2

    def test_step_after_done_returns_done(self):
        module = compile_c("int f(void) { return 1; }")
        interp = Interpreter(module)
        interp.enter("f", [])
        assert interp.resume() is True
        steps = interp.steps
        assert interp.resume() is True  # nothing left to run
        assert interp.steps == steps and interp._return_value == 1

    def test_cannot_start_twice(self):
        module = compile_c("int f(void) { return 1; }")
        interp = Interpreter(module)
        interp.enter("f", [])
        with pytest.raises(InterpError, match="already running"):
            interp.enter("f", [])
        with pytest.raises(InterpError, match="already running"):
            interp.call("f", [])
        assert interp.resume() is True
        assert interp.call("f", []) == 1  # free again once it finished

    def test_blocked_consume_does_not_advance(self):
        m, chan = consume_and_return()
        io = ChannelIO()
        interp = Interpreter(m, Memory(), channel_io=io)
        interp.enter("f", [])
        assert interp.resume() is False
        assert interp.resume() is False  # still parked on the consume
        assert interp.steps == 0
        io.produce(chan, 0, 77)
        assert interp.resume() is True
        assert interp._return_value == 77
        assert interp.steps == 2  # the consume and the ret, once each

    def test_blocked_call_via_call_api_raises(self):
        m, _ = consume_and_return()
        interp = Interpreter(m, Memory(), channel_io=ChannelIO())
        with pytest.raises(InterpError, match="blocked"):
            interp.call("f", [])

    def test_steps_counter(self):
        module = compile_c(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
        )
        optimize_module(module)
        interp = Interpreter(module)
        interp.call("f", [10])
        assert interp.steps > 30  # roughly 5+ ops per iteration
