"""Expression forms == the reference, bit for bit.

Every op the code generators paste inline has one expression form
(``repro.interp.ops.FORMS``).  Here each covered opcode is evaluated on
boundary operands of every width by ``eval_*`` (the reference) and two
ways from its form — as the generator renders it over locals read from a
home, and as it renders it over constant operands (which become ``int``
literals or namespace names) — and all three must agree on the result's
type and bits, or raise the same error.
"""

import math
import struct

import pytest

from repro.errors import InterpError
from repro.frontend import compile_c
from repro.hw import AcceleratorSystem
from repro.interp import Interpreter, Memory
from repro.interp.interpreter import _Text
from repro.interp.ops import (
    FORMS,
    PURE_OPS,
    UNSIGNED_BINOPS,
)
from repro.ir import (
    BOOL,
    F32,
    F64,
    GEP,
    I8,
    I16,
    I32,
    I64,
    ArrayType,
    BinaryOp,
    Cast,
    Constant,
    FCmp,
    ICmp,
    Select,
    StructType,
    ptr,
)
from repro.ir.instructions import FCMP_FUNCS, FLOAT_BINOP_FUNCS, ICMP_FUNCS, INT_BINOP_FUNCS
from repro.ir.values import Argument
from repro.transforms import optimize_module

INT_TYPES = [BOOL, I8, I16, I32, I64]
FLOAT_TYPES = [F32, F64]


def int_boundaries(bits: int) -> list[int]:
    """0, ±1, INT_MIN/MAX and the mask edges of a ``bits``-wide integer."""
    if bits == 1:
        return [0, 1]
    half = 1 << (bits - 1)
    return sorted({0, 1, -1, 2, -2, half - 1, -half, -half + 1, 63, 64, bits})


FLOATS = [0.0, -0.0, 1.0, -1.0, 2.5, -3.75, 1e30, -1e-30, 3.4028235e38, 1e308,
          math.inf, -math.inf, math.nan]
POINTERS = [0, 4, 0x7FFFFFFC, 0x80000000, 0xFFFFFFFC, 0xFFFFFFFF]


def outcome(fn, *args):
    """What a call leaves: its result's type and bits, or its error."""
    try:
        value = fn(*args)
    except Exception as exc:  # the three must fail alike, whatever the type
        return "raises", type(exc).__name__, str(exc)
    bits = struct.pack("<d", value).hex() if type(value) is float else repr(value)
    return type(value).__name__, bits


def rendered(inst, constants: bool):
    """``f(*operand values)`` from the generator's own text for ``inst``:
    operands read from a home into locals, or (``constants``) the
    instruction's constant operands pasted as the generator pastes them."""
    positions = {id(v): i for i, v in enumerate(inst.operands)}

    def bind(value):
        if isinstance(value, Constant) and constants:
            return None, value.value
        return id(value), None

    text = _Text(bind, lambda key: f"args[{positions[key]}]")
    text.pure(inst)
    text.body.append(f"return {text.local[id(inst)]}")
    function = text.function("*args")
    return lambda *values: function(*values)


def agree(make, values, check_type=None):
    """Build ``make(*values)`` both ways and compare all three evaluations."""
    inst = make(values, True)
    args_inst = make(values, False)
    expected = outcome(PURE_OPS[type(inst)], inst, *values)
    seen = {
        "rendered": outcome(rendered(args_inst, constants=False), *values),
        "pasted": outcome(rendered(inst, constants=True), *values),
    }
    for way, got in seen.items():
        assert got == expected, (way, inst, values)
    if check_type is not None and expected[0] != "raises":
        assert expected[0] == check_type, (inst, values, expected)


def operand(type_, value, as_constant: bool, index: int):
    return Constant(type_, value) if as_constant else Argument(type_, f"a{index}", index)


class TestBinops:
    @pytest.mark.parametrize("op", sorted(INT_BINOP_FUNCS))
    @pytest.mark.parametrize("type_", INT_TYPES, ids=repr)
    def test_int(self, op, type_):
        values = int_boundaries(type_.bits)
        for a in values:
            for b in values:
                agree(lambda v, c: BinaryOp(op, operand(type_, v[0], c, 0),
                                            operand(type_, v[1], c, 1)),
                      (a, b), check_type="int")

    @pytest.mark.parametrize("op", sorted(FLOAT_BINOP_FUNCS))
    @pytest.mark.parametrize("type_", FLOAT_TYPES, ids=repr)
    def test_float(self, op, type_):
        for a in FLOATS:
            for b in FLOATS:
                agree(lambda v, c: BinaryOp(op, operand(type_, v[0], c, 0),
                                            operand(type_, v[1], c, 1)),
                      (a, b), check_type="float")

    @pytest.mark.parametrize("op", sorted(UNSIGNED_BINOPS))
    def test_unsigned_ops_take_integral_floats_and_bools(self, op):
        inst = BinaryOp(op, Argument(I32, "a", 0), Argument(I32, "b", 1))
        for values in ((9.0, True), (True, 1.0), (-7.0, 3)):
            expected = outcome(PURE_OPS[BinaryOp], inst, *values)
            assert outcome(rendered(inst, constants=False), *values) == expected


class TestCompares:
    @pytest.mark.parametrize("pred", sorted(ICMP_FUNCS))
    @pytest.mark.parametrize("type_", [*INT_TYPES, ptr(I32)], ids=repr)
    def test_icmp_is_an_int_never_a_bool(self, pred, type_):
        values = POINTERS if type_.is_pointer else int_boundaries(type_.bits)
        for a in values:
            for b in values:
                agree(lambda v, c: ICmp(pred, operand(type_, v[0], c, 0),
                                        operand(type_, v[1], c, 1)),
                      (a, b), check_type="int")

    @pytest.mark.parametrize("pred", sorted(FCMP_FUNCS))
    @pytest.mark.parametrize("type_", FLOAT_TYPES, ids=repr)
    def test_fcmp_is_an_int_never_a_bool(self, pred, type_):
        for a in FLOATS:
            for b in FLOATS:
                agree(lambda v, c: FCmp(pred, operand(type_, v[0], c, 0),
                                        operand(type_, v[1], c, 1)),
                      (a, b), check_type="int")


#: Every cast the frontend emits, at each width pair it can take.
INT_CASTS = [
    ("trunc", src, dst) for src in INT_TYPES for dst in INT_TYPES if dst.bits < src.bits
] + [
    (op, src, dst) for op in ("zext", "sext")
    for src in INT_TYPES for dst in INT_TYPES if dst.bits > src.bits
] + [
    ("sitofp", src, dst) for src in INT_TYPES for dst in FLOAT_TYPES
] + [
    ("bitcast", I32, I32), ("inttoptr", I32, ptr(I32)), ("inttoptr", I64, ptr(I8)),
]
POINTER_CASTS = [("ptrtoint", ptr(I32), I32), ("ptrtoint", ptr(I8), I64),
                 ("bitcast", ptr(I32), ptr(I8))]
FLOAT_CASTS = [("fptosi", src, dst) for src in FLOAT_TYPES for dst in INT_TYPES] + [
    ("fpext", F32, F64), ("fptrunc", F64, F32),
]


class TestCasts:
    @pytest.mark.parametrize("op,src,dst", INT_CASTS + POINTER_CASTS + FLOAT_CASTS, ids=repr)
    def test_cast(self, op, src, dst):
        if src.is_pointer:
            values = POINTERS
        elif src.is_float:
            values = FLOATS
        else:
            values = int_boundaries(src.bits)
        for value in values:
            agree(lambda v, c: Cast(op, operand(src, v[0], c, 0), dst), (value,),
                  check_type="float" if dst.is_float else "int")

    @pytest.mark.parametrize(
        "src,dst", [(src, dst) for op, src, dst in FLOAT_CASTS if op == "fptosi"],
        ids=repr,
    )
    def test_inf_and_nan_are_a_typed_trap_in_every_form(self, src, dst):
        # No engine gives (int)inf a value: every form traps as eval does.
        for value in (math.inf, -math.inf, math.nan):
            for as_constant in (False, True):
                inst = Cast("fptosi", operand(src, value, as_constant, 0), dst)
                expected = outcome(PURE_OPS[Cast], inst, value)
                assert expected[:2] == ("raises", "InterpError"), expected
                assert outcome(rendered(inst, as_constant), value) == expected

    @pytest.mark.parametrize("engine", ["lockstep", "specialized"])
    def test_inf_traps_typed_on_the_hardware_engines(self, engine):
        module = compile_c(
            "int f(int a) { double x = a; return (int)(x * 1e308 * 10.0); }"
        )
        optimize_module(module)
        with pytest.raises(InterpError, match="fptosi"):
            AcceleratorSystem(module, Memory(), engine=engine).run("f", [3])
        with pytest.raises(InterpError, match="fptosi"):
            Interpreter(module).call("f", [3])


class TestSelectAndGep:
    @pytest.mark.parametrize("type_", [I8, I32, I64, F64, ptr(I32)], ids=repr)
    def test_select_passes_the_arm_through(self, type_):
        arms = FLOATS if type_.is_float else POINTERS if type_.is_pointer else [-1, 0, 7]
        for cond in (0, 1):
            for a in arms:
                for b in arms[:3]:
                    agree(lambda v, c: Select(operand(BOOL, v[0], c, 0),
                                              operand(type_, v[1], c, 1),
                                              operand(type_, v[2], c, 2)),
                          (cond, a, b))

    def test_gep_scales_and_wraps(self):
        s = StructType("gform", [("pad", I64), ("tab", ArrayType(F64, 8)), ("k", I32)])
        for base in POINTERS:
            for i in (-1, 0, 1, 0x7FFFFFFF):
                for j in (-8, 0, 7):
                    agree(lambda v, c: GEP(operand(ptr(s), v[0], c, 0), [
                        operand(I32, v[1], c, 1), Constant(I32, 1),
                        operand(I32, v[3], c, 3)]), (base, i, 1, j), check_type="int")


def test_every_pure_op_has_one_form():
    assert set(FORMS) == set(PURE_OPS)
