"""Property tests: shared op semantics vs. Python/numpy oracles.

These are the semantics both the interpreter and the hardware worker use;
any divergence between them and real machine arithmetic would silently
corrupt every benchmark.
"""

import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import InterpError
from repro.interp.ops import (
    PURE_OPS,
    UNSIGNED_BINOPS,
    bind_gep,
    eval_binop,
    eval_cast,
    eval_fcmp,
    eval_gep,
    eval_icmp,
    eval_select,
)
from repro.ir.instructions import FCMP_FUNCS, ICMP_FUNCS, INT_BINOP_FUNCS
from repro.ir import (
    BinaryOp,
    Cast,
    Constant,
    FCmp,
    GEP,
    BOOL,
    I8,
    I32,
    I64,
    ICmp,
    Load,
    F32,
    F64,
    Alloca,
    Select,
    StructType,
    ptr,
)
from tests.test_interp_forms import rendered as render_form


def rendered(inst):
    """``f(*operand values)``: ``inst``'s form as the generator renders it."""
    return render_form(inst, constants=False)


i32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)
f64s = st.floats(allow_nan=False, allow_infinity=False, width=64)


def binop(op, a, b, type_=I32):
    inst = BinaryOp(op, Constant(type_, a), Constant(type_, b))
    return eval_binop(inst, a, b)


class TestIntSemantics:
    @given(i32s, i32s)
    def test_add_matches_int32_wraparound(self, a, b):
        expected = int(np.int32(np.int64(a) + np.int64(b)))
        assert binop("add", a, b) == expected

    @given(i32s, i32s)
    def test_mul_matches_int32(self, a, b):
        expected = int(np.int32(np.int64(a) * np.int64(b) & 0xFFFFFFFF))
        assert binop("mul", a, b) == expected

    @given(i32s, i32s)
    def test_sdiv_truncates_like_c(self, a, b):
        assume(b != 0)
        assume(not (a == -(2**31) and b == -1))  # overflow UB
        expected = int(a / b)  # C: trunc toward zero
        assert binop("sdiv", a, b) == expected

    @given(i32s, i32s)
    def test_srem_sign_follows_dividend(self, a, b):
        assume(b != 0)
        assume(not (a == -(2**31) and b == -1))
        r = binop("srem", a, b)
        assert binop("sdiv", a, b) * b + r == a
        if r != 0:
            assert (r < 0) == (a < 0)

    @given(i32s, st.integers(0, 31))
    def test_shifts(self, a, s):
        from repro.interp import wrap_int
        assert binop("shl", a, s) == wrap_int((a & 0xFFFFFFFF) << s, 32)
        assert binop("ashr", a, s) == a >> s

    @given(i32s, i32s)
    def test_bitwise(self, a, b):
        assert binop("and", a, b) == a & b
        assert binop("or", a, b) == a | b
        assert binop("xor", a, b) == a ^ b

    @given(i32s, i32s)
    @example(a=-1, b=1)  # quotient 2**32 - 1: wraps to -1
    def test_udiv_unsigned(self, a, b):
        assume(b != 0)
        ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
        assume(ub != 0)
        quotient = ua // ub  # below 2**32: wrap it as a two's-complement i32
        expected = quotient - (1 << 32) if quotient >= 1 << 31 else quotient
        assert binop("udiv", a, b) == expected


class TestFloatSemantics:
    @given(f64s, f64s)
    def test_fadd_is_ieee_double(self, a, b):
        inst = BinaryOp("fadd", Constant(F64, a), Constant(F64, b))
        result = eval_binop(inst, a, b)
        assert result == a + b or (result != result and (a + b) != (a + b))

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32),
           st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_f32_ops_round_to_single(self, a, b):
        inst = BinaryOp("fmul", Constant(F32, a), Constant(F32, b))
        result = eval_binop(inst, a, b)
        expected = np.float32(a) * np.float32(b)  # IEEE f32 incl. overflow
        assert result == expected or (result != result)

    @given(f64s, f64s)
    def test_fcmp_matches_python(self, a, b):
        for pred, fn in [("olt", lambda: a < b), ("oge", lambda: a >= b),
                         ("oeq", lambda: a == b)]:
            inst = FCmp(pred, Constant(F64, a), Constant(F64, b))
            assert eval_fcmp(inst, a, b) == int(fn())


class TestCmpAndCast:
    @given(i32s, i32s)
    def test_icmp_signed(self, a, b):
        assert eval_icmp(ICmp("slt", Constant(I32, a), Constant(I32, b)), a, b) == int(a < b)
        assert eval_icmp(ICmp("sge", Constant(I32, a), Constant(I32, b)), a, b) == int(a >= b)

    @given(i32s, i32s)
    def test_icmp_unsigned(self, a, b):
        ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
        assert eval_icmp(ICmp("ult", Constant(I32, a), Constant(I32, b)), a, b) == int(ua < ub)

    @given(i32s)
    def test_trunc_sext_roundtrip_for_small(self, a):
        t = eval_cast(Cast("trunc", Constant(I32, a), I8), a)
        assert -128 <= t <= 127
        back = eval_cast(Cast("sext", Constant(I8, t), I32), t)
        assert back == t

    @given(f64s)
    def test_fptosi_truncates(self, x):
        assume(abs(x) < 2**30)
        inst = Cast("fptosi", Constant(F64, x), I32)
        assert eval_cast(inst, x) == int(x)

    @given(st.integers(-(2**20), 2**20))
    def test_sitofp_exact_in_range(self, n):
        inst = Cast("sitofp", Constant(I32, n), F64)
        assert eval_cast(inst, n) == float(n)


class TestGepSemantics:
    def test_struct_field_offsets(self):
        s = StructType("gs", [("a", I32), ("b", F64), ("c", I32)])
        base = Alloca(s)
        g = GEP(base, [Constant(I32, 0), Constant(I32, 2)])
        assert eval_gep(g, 1000, 0, 2) == 1000 + s.field_offset(2)

    @given(st.integers(0, 1000), st.integers(-100, 100))
    def test_array_scaling(self, base, index):
        slot = Alloca(F64)
        g = GEP(slot, [Constant(I32, index)])
        assert eval_gep(g, base, index) == (base + 8 * index) & 0xFFFFFFFF

    def test_nested_struct_array(self):
        from repro.ir import ArrayType
        s = StructType("gt", [("pad", I32), ("tab", ArrayType(I32, 8))])
        base = Alloca(s)
        g = GEP(base, [Constant(I32, 0), Constant(I32, 1), Constant(I32, 3)])
        assert eval_gep(g, 0x100, 0, 1, 3) == 0x100 + 4 + 3 * 4


class TestBoundForms:
    """The generator's expression form over operand locals must equal
    ``eval_*`` everywhere."""

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except InterpError as exc:
            return str(exc)

    @pytest.mark.parametrize("op", sorted(INT_BINOP_FUNCS))
    @pytest.mark.parametrize("type_", [BOOL, I8, I32, I64], ids=repr)
    @given(a=st.integers(-(2**63), 2**63 - 1), b=st.integers(-(2**63), 2**63 - 1),
           small=st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_int_binop(self, op, type_, a, b, small):
        from repro.interp import wrap_int
        a, b = wrap_int(a, type_.bits), wrap_int(b, type_.bits)
        inst = BinaryOp(op, Constant(type_, a), Constant(type_, b))
        bound = rendered(inst)
        for rhs in (b, wrap_int(small, type_.bits)):  # small: hits /0 and shifts
            assert self.outcome(bound, a, rhs) == self.outcome(eval_binop, inst, a, rhs)

    @pytest.mark.parametrize("op", ["fadd", "fsub", "fmul", "fdiv"])
    @pytest.mark.parametrize("type_", [F32, F64], ids=repr)
    def test_float_binop(self, op, type_):
        inst = BinaryOp(op, Constant(type_, 1.0), Constant(type_, 3.0))
        for a, b in [(1.0, 3.0), (1e30, 1e30), (2.5, 0.0)]:
            assert self.outcome(rendered(inst), a, b) == self.outcome(eval_binop, inst, a, b)

    @pytest.mark.parametrize("op", ["udiv", "urem", "lshr"])
    def test_unsigned_binops_coerce_operands_through_int(self, op):
        # The ops.py form is to_unsigned(int(a), bits): an operand that is
        # integral but not an ``int`` (a bool, a float from a bitcast) must
        # evaluate, not raise TypeError on ``&``.
        inst = BinaryOp(op, Constant(I32, 9), Constant(I32, 1))
        expected = eval_binop(inst, 9, 1)
        assert eval_binop(inst, 9.0, True) == expected
        assert rendered(inst)(9.0, True) == expected

    @pytest.mark.parametrize("pred", sorted(ICMP_FUNCS))
    @given(a=i32s, b=i32s)
    @settings(max_examples=30, deadline=None)
    def test_icmp(self, pred, a, b):
        for type_ in (I32, ptr(I32)):
            if type_.is_pointer:
                a, b = a & 0xFFFFFFFF, b & 0xFFFFFFFF
            inst = ICmp(pred, Constant(type_, a), Constant(type_, b))
            assert rendered(inst)(a, b) == eval_icmp(inst, a, b)

    @given(st.integers(0, 2**31), st.integers(-50, 50), st.integers(-50, 50))
    def test_gep_folds_constants_and_scales_the_rest(self, base, i, j):
        from repro.ir import ArrayType
        s = StructType("gb", [("pad", I64), ("tab", ArrayType(F64, 8)), ("k", I32)])
        index = Load(Alloca(I32))  # a non-constant index value
        g = GEP(Alloca(s), [index, Constant(I32, 1), index])
        offset, terms = bind_gep(g)
        assert offset == s.field_offset(1)
        assert terms == [(s.size(), 0), (8, 2)]
        assert eval_gep(g, base, i, 1, j) == (
            base + offset + s.size() * i + 8 * j
        ) & 0xFFFFFFFF
        const = GEP(Alloca(s), [Constant(I32, 2), Constant(I32, 2)])
        assert bind_gep(const) == (2 * s.size() + s.field_offset(2), [])

    @pytest.mark.parametrize("pred", sorted(FCMP_FUNCS))
    @given(a=f64s, b=f64s)
    @settings(max_examples=30, deadline=None)
    def test_fcmp(self, pred, a, b):
        inst = FCmp(pred, Constant(F64, a), Constant(F64, b))
        for x, y in [(a, b), (a, a)]:
            assert rendered(inst)(x, y) == eval_fcmp(inst, x, y)

    @pytest.mark.parametrize("op,src,dst", [
        ("trunc", I64, I32), ("trunc", I32, I8), ("trunc", I32, BOOL),
        ("zext", I8, I32), ("zext", BOOL, I32), ("zext", I32, I64),
        ("sext", I8, I32), ("sext", I32, I64),
        ("sitofp", I32, F32), ("sitofp", I64, F64),
        ("bitcast", I32, I32), ("ptrtoint", ptr(I32), I32),
        ("inttoptr", I32, ptr(I32)), ("bitcast", ptr(I32), ptr(I8)),
    ], ids=repr)
    @given(value=st.integers(-(2**63), 2**63 - 1))
    @settings(max_examples=30, deadline=None)
    def test_int_source_casts(self, op, src, dst, value):
        from repro.interp import wrap_int
        value = value & 0xFFFFFFFF if src.is_pointer else wrap_int(value, src.bits)
        inst = Cast(op, Constant(src, value), dst)
        # bools and integral floats reach casts too (icmp results, bitcasts)
        for v in (value, float(value) if abs(value) < 2**53 else value, value == 1):
            assert rendered(inst)(v) == eval_cast(inst, v)

    @pytest.mark.parametrize("op,src,dst", [
        ("fptosi", F64, I32), ("fptosi", F32, I64), ("fptosi", F64, I8),
        ("fpext", F32, F64), ("fptrunc", F64, F32),
    ], ids=repr)
    @given(value=f64s)
    @settings(max_examples=30, deadline=None)
    def test_float_source_casts(self, op, src, dst, value):
        inst = Cast(op, Constant(src, value), dst)
        assert rendered(inst)(value) == eval_cast(inst, value)

    @given(cond=st.integers(0, 1), a=i32s, b=i32s)
    def test_select(self, cond, a, b):
        inst = Select(Constant(BOOL, cond), Constant(I32, a), Constant(I32, b))
        assert rendered(inst)(cond, a, b) == eval_select(inst, cond, a, b)
        assert eval_select(inst, cond, a, b) == (a if cond else b)

    @given(st.integers(0, 2**31), st.integers(-50, 50), st.integers(-50, 50))
    def test_table_entries_take_the_operand_values_in_order(self, base, i, j):
        from repro.ir import ArrayType
        index = Load(Alloca(I32))
        g = GEP(Alloca(ArrayType(ArrayType(I32, 4), 4)), [Constant(I32, 0), index, index])
        expected = (base + 16 * i + 4 * j) & 0xFFFFFFFF
        assert PURE_OPS[GEP](g, base, 0, i, j) == expected

    def test_unsigned_binops_are_binop_opcodes(self):
        # "ult" is an icmp predicate; it was a dead entry here.
        assert set(UNSIGNED_BINOPS) <= set(INT_BINOP_FUNCS)


def _concrete_instruction_classes():
    import inspect
    from repro.ir import instructions
    from repro.ir.instructions import CgpaPrimitive, Instruction
    return {
        cls for _, cls in inspect.getmembers(instructions, inspect.isclass)
        if issubclass(cls, Instruction) and cls not in (Instruction, CgpaPrimitive)
    }


def _one_of_each_sequential_op():
    """A hand-built module using every non-CGPA instruction class (the
    frontend never emits ``select``, and mem2reg removes every alloca)."""
    from repro.ir import FunctionType, IRBuilder, Module
    module = Module("each")
    malloc = module.new_function("malloc", FunctionType(ptr(I8), [I32]), ["n"])
    helper = module.new_function("helper", FunctionType(I32, [I32]), ["x"])
    b = IRBuilder(helper.new_block("entry"))
    b.ret(b.mul(helper.args[0], Constant(I32, 3)))
    f = module.new_function("f", FunctionType(I32, [I32]), ["n"])
    n = f.args[0]
    entry, then, join = (f.new_block(name) for name in ("entry", "then", "join"))
    b = IRBuilder(entry)
    slot = b.alloca(I32)
    b.store(n, slot)
    cell = b.gep(b.cast("bitcast", b.call(malloc, [Constant(I32, 16)]), ptr(I32)),
                 [Constant(I32, 1)])
    b.store(b.load(slot), cell)
    h = b.call(helper, [b.load(cell)])
    is_small = b.fcmp("olt", b.cast("sitofp", n, F64), Constant(F64, 2.5))
    s = b.select(is_small, h, n)
    b.cond_branch(b.icmp("slt", h, Constant(I32, 10)), then, join)
    b.set_block(then)
    t = b.add(s, Constant(I32, 1))
    b.jump(join)
    b.set_block(join)
    r = b.phi(I32)
    r.add_incoming(s, entry)
    r.add_incoming(t, then)
    b.ret(r)
    return module


class TestEveryInstructionHasSemanticsEverywhere:
    def test_the_interpreter_and_every_engine_accept_every_class(self):
        """An instruction no executor knows raises ``cannot interpret
        opcode`` (interpreter) or ``cannot execute opcode`` (worker)."""
        from repro.harness.build import compile_kernel
        from repro.harness.runner import setup_workload
        from repro.hw import ENGINES, AcceleratorSystem, DirectMappedCache
        from repro.interp import Interpreter, Memory
        from repro.ir import verify_module
        from repro.kernels import KERNELS_BY_NAME
        from repro.pipeline import run_transformed

        sequential = _one_of_each_sequential_op()
        verify_module(sequential)
        spec = KERNELS_BY_NAME["bfs"]  # produce, broadcast, consume, liveouts
        pipeline = compile_kernel(spec)
        used = {
            type(inst)
            for module in (sequential, pipeline.module)
            for function in module.functions.values()
            for inst in function.instructions()
        }
        assert used == _concrete_instruction_classes()

        for arg in (1, 7):
            expected = Interpreter(sequential).call("f", [arg])
            for engine in ENGINES:  # a refusal is "cannot execute opcode"
                system = AcceleratorSystem(sequential, Memory(), engine=engine)
                assert system.run("f", [arg]).return_value == expected
        cycles, values = set(), set()
        for engine in ENGINES:
            memory, globals_, args = setup_workload(pipeline.module, spec)
            system = AcceleratorSystem(
                pipeline.module, memory, channels=pipeline.result.channels,
                cache=DirectMappedCache(ports=8), global_addresses=globals_,
                engine=engine,
            )
            report = system.run(spec.measure_entry, args)
            cycles.add(report.cycles)
            values.add((report.return_value, memory.snapshot()))
        memory, globals_, args = setup_workload(pipeline.module, spec)
        value, _, _ = run_transformed(
            pipeline.module, spec.measure_entry, args, memory,
            global_addresses=globals_,
        )
        values.add((value, memory.snapshot()))
        assert len(cycles) == 1 and len(values) == 1
