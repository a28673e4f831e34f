"""Property tests for the optimizer: idempotence and random-program safety."""

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import InterpError
from repro.frontend import compile_c
from repro.interp import Interpreter
from repro.interp.ops import PURE_OPS
from repro.ir import (
    BOOL, F32, F64, I8, I16, I32, I64, BinaryOp, Cast, Constant, FCmp,
    FunctionType, ICmp, IRBuilder, Module, Select, print_module, ptr,
    verify_module,
)
from repro.ir.instructions import (
    FCMP_FUNCS, FLOAT_BINOP_FUNCS, ICMP_FUNCS, INT_BINOP_FUNCS,
)
from repro.transforms import optimize_module
from repro.transforms.constfold import fold_constants

BIN_OPS = ["+", "-", "*", "&", "|", "^"]
CMP_OPS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def random_program(draw):
    """A small structured integer program with loops and branches.

    Covers the control idioms the kernel suite leans on: fixed-bound
    loops, early-exit (``break``) loops, ``continue`` guards and
    data-dependent ``while`` trip counts.
    """
    n_stmts = draw(st.integers(1, 4))
    lines = ["int s = 1;"]
    for k in range(n_stmts):
        kind = draw(st.integers(0, 6))
        op = draw(st.sampled_from(BIN_OPS))
        cmp = draw(st.sampled_from(CMP_OPS))
        c1 = draw(st.integers(-10, 10))
        c2 = draw(st.integers(1, 8))
        if kind == 0:
            lines.append(f"s = s {op} {c1};")
        elif kind == 1:
            lines.append(f"if (s {cmp} {c1}) s = s {op} {c2}; else s = s - 1;")
        elif kind == 2:
            lines.append(
                f"for (int i{k} = 0; i{k} < {c2}; i{k}++) s = s {op} i{k};"
            )
        elif kind == 3:
            lines.append(f"{{ int t{k} = a {op} {c1}; s = s + t{k}; }}")
        elif kind == 4:
            # Early-exit bound: the loop leaves through a break whose
            # condition depends on the accumulator.
            lines.append(
                f"for (int i{k} = 0; i{k} < {c2 + 4}; i{k}++) "
                f"{{ if (s {cmp} {c1}) break; s = s {op} i{k}; }}"
            )
        elif kind == 5:
            # Continue guard: only odd iterations update.
            lines.append(
                f"for (int i{k} = 0; i{k} < {c2}; i{k}++) "
                f"{{ if ((i{k} & 1) == 0) continue; s = s {op} {c1}; }}"
            )
        else:
            # Data-dependent trip count, always terminating.
            lines.append(
                f"int w{k} = s & 7; while (w{k} > 0) "
                f"{{ s = s {op} {c2}; w{k} = w{k} - 1; }}"
            )
    body = "\n            ".join(lines)
    return f"""
        int f(int a) {{
            {body}
            return s;
        }}
    """


class TestOptimizerProperties:
    @given(random_program(), st.integers(-100, 100))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_optimization_preserves_behaviour(self, source, arg):
        baseline = compile_c(source)
        expected = Interpreter(baseline).call("f", [arg])
        optimized = compile_c(source)
        optimize_module(optimized)
        verify_module(optimized)
        assert Interpreter(optimized).call("f", [arg]) == expected

    @given(random_program())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_optimization_idempotent(self, source):
        module = compile_c(source)
        optimize_module(module)
        once = print_module(module)
        optimize_module(module)
        twice = print_module(module)
        assert once == twice

    @given(random_program())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_optimization_never_grows_code(self, source):
        module = compile_c(source)
        before = sum(1 for f in module.functions.values()
                     for _ in f.instructions())
        optimize_module(module)
        after = sum(1 for f in module.functions.values()
                    for _ in f.instructions())
        assert after <= before


INT_TYPES = [BOOL, I8, I16, I32, I64]
FLOAT_TYPES = [F32, F64]
PTR = ptr(I32)

#: opcode -> (source type, target type) pairs, covering every cast opcode.
CASTS = {
    "trunc": [(I64, I32), (I32, I8), (I16, BOOL)],
    "zext": [(BOOL, I32), (I8, I16), (I32, I64)],
    "sext": [(BOOL, I32), (I8, I16), (I32, I64)],
    "fptosi": [(F64, I32), (F32, I64), (F64, I8)],
    "sitofp": [(I32, F32), (I64, F64), (I8, F64)],
    "fpext": [(F32, F64)],
    "fptrunc": [(F64, F32)],
    "bitcast": [(PTR, ptr(I8)), (I32, I32)],
    "ptrtoint": [(PTR, I32)],
    "inttoptr": [(I32, PTR)],
}


def sample(rng, type_):
    """A random constant value of ``type_``, edge cases over-represented."""
    if type_.is_pointer:
        return rng.choice([0, 4, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFC,
                           rng.randrange(1 << 32)])
    if type_.is_float:
        value = rng.choice([0.0, -0.0, 1.0, -2.5, 1e30, -1e30, 3.0e38,
                            rng.uniform(-1e6, 1e6)])
        return value if type_ == F64 else _f32(value)
    if type_.bits == 1:
        return rng.randrange(2)
    half = 1 << (type_.bits - 1)
    return rng.choice([0, 1, -1, half - 1, -half, rng.randrange(-half, half)])


def _f32(value):
    return struct.unpack("<f", struct.pack("<f", value))[0]


def outcome(module):
    try:
        return repr(Interpreter(module).call("f", []))
    except InterpError as exc:
        return f"trap: {exc}"


def check_fold(make):
    """``make()`` builds one constant-operand instruction; interpreting the
    one-instruction function around it must give the same outcome before
    and after ``fold_constants`` — the value ``ops.eval_*`` computes, or
    the same trap from an instruction folding left in place."""
    inst = make()
    module = Module("fold")
    function = module.new_function("f", FunctionType(inst.type, []), [])
    function.new_block("entry").append(inst)
    IRBuilder(function.entry).ret(inst)
    try:
        values = [op.value for op in inst.operands]
        expected = repr(PURE_OPS[type(inst)](inst, *values))
    except InterpError as exc:
        expected = f"trap: {exc}"
    assert outcome(module) == expected
    fold_constants(function)
    verify_module(module)
    assert outcome(module) == expected
    if expected.startswith("trap"):
        assert inst in function.entry.instructions
    return inst in function.entry.instructions  # True: left in place


class TestConstantFoldingAgreesWithTheOpTable:
    """Seeded: every foldable opcode, random constant operands."""

    ROUNDS = 12

    @pytest.mark.parametrize("type_", INT_TYPES, ids=repr)
    @pytest.mark.parametrize("op", sorted(INT_BINOP_FUNCS))
    def test_int_binops(self, op, type_):
        rng = random.Random(f"{op}/{type_!r}")
        for _ in range(self.ROUNDS):
            a, b = sample(rng, type_), sample(rng, type_)
            check_fold(lambda: BinaryOp(op, Constant(type_, a), Constant(type_, b)))

    @pytest.mark.parametrize("type_", FLOAT_TYPES, ids=repr)
    @pytest.mark.parametrize("op", sorted(FLOAT_BINOP_FUNCS))
    def test_float_binops(self, op, type_):
        rng = random.Random(f"{op}/{type_!r}")
        for _ in range(self.ROUNDS):
            a, b = sample(rng, type_), sample(rng, type_)
            check_fold(lambda: BinaryOp(op, Constant(type_, a), Constant(type_, b)))

    @pytest.mark.parametrize("type_", INT_TYPES + [PTR], ids=repr)
    @pytest.mark.parametrize("pred", sorted(ICMP_FUNCS))
    def test_icmp_on_ints_and_pointers(self, pred, type_):
        rng = random.Random(f"{pred}/{type_!r}")
        for _ in range(self.ROUNDS):
            a, b = sample(rng, type_), sample(rng, type_)
            left = check_fold(lambda: ICmp(pred, Constant(type_, a), Constant(type_, b)))
            assert not left  # a comparison of constants always folds

    @pytest.mark.parametrize("pred", sorted(FCMP_FUNCS))
    def test_fcmp(self, pred):
        rng = random.Random(pred)
        for _ in range(self.ROUNDS):
            a, b = sample(rng, F64), sample(rng, F64)
            check_fold(lambda: FCmp(pred, Constant(F64, a), Constant(F64, b)))

    @pytest.mark.parametrize(
        "op,src,dst", [(op, s, d) for op in sorted(CASTS) for s, d in CASTS[op]],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_casts(self, op, src, dst):
        rng = random.Random(f"{op}/{src!r}/{dst!r}")
        for _ in range(self.ROUNDS):
            value = sample(rng, src)
            check_fold(lambda: Cast(op, Constant(src, value), dst))

    def test_every_cast_opcode_is_covered(self):
        from repro.ir import CAST_OPS
        assert set(CASTS) == set(CAST_OPS)

    @pytest.mark.parametrize("type_", INT_TYPES + FLOAT_TYPES + [PTR], ids=repr)
    def test_select(self, type_):
        rng = random.Random(repr(type_))
        for cond in (0, 1):
            a, b = sample(rng, type_), sample(rng, type_)
            check_fold(lambda: Select(
                Constant(BOOL, cond), Constant(type_, a), Constant(type_, b)))

    @pytest.mark.parametrize("op", ["sdiv", "srem", "udiv", "urem", "fdiv"])
    def test_a_trapping_op_survives_folding(self, op):
        type_ = F64 if op == "fdiv" else I32
        left = check_fold(lambda: BinaryOp(op, Constant(type_, 7), Constant(type_, 0)))
        assert left

    def test_a_cast_with_no_value_is_left_in_place(self):
        # (int)inf has no value on any engine; the folder used to die in
        # optimize_module with the OverflowError of its own int(inf).
        module = compile_c("int f(void){ double x = 1e308; return (int)(x*10.0); }")
        optimize_module(module)
        verify_module(module)
        opcodes = [i.opcode for i in module.get_function("f").instructions()]
        assert "fptosi" in opcodes and "fmul" not in opcodes

    def test_unrepresentable_results_are_not_folded(self):
        # ptrtoint of a high address is an i32 no in-range constant equals
        # (the engines carry it unsigned); folding must leave it alone.
        assert check_fold(lambda: Cast("ptrtoint", Constant(PTR, 0xFFFFFFFC), I32))
        assert not check_fold(lambda: Cast("ptrtoint", Constant(PTR, 64), I32))
        assert not check_fold(lambda: Cast("inttoptr", Constant(I32, -4), PTR))


#: Programs on which the folder used to disagree with every engine (the
#: third made ``optimize_module`` die with an untyped AttributeError).
POINTER_CONSTANT_PROGRAMS = [
    ("int f(void){int *p=(int*)(-4); return (int)p == -4;}", 0),
    ("int f(void){int *p=(int*)(-4); return ((unsigned)p) >> 28;}", 15),
    ("int f(void){int *p=(int*)(-4); int *q=(int*)4; return p<q;}", 0),
]


class TestPointerConstantFolding:
    @pytest.mark.parametrize("source,expected", POINTER_CONSTANT_PROGRAMS)
    def test_optimised_equals_unoptimised(self, source, expected):
        assert Interpreter(compile_c(source)).call("f", []) == expected
        optimized = compile_c(source)
        optimize_module(optimized)
        verify_module(optimized)
        assert Interpreter(optimized).call("f", []) == expected

    @pytest.mark.parametrize("source,_", POINTER_CONSTANT_PROGRAMS)
    def test_service_source_override_compiles(self, source, _):
        # The same text through the service edge, riding along in a client
        # copy of the ks source: the whole module is optimised, so the job
        # used to die with the folder's traceback instead of a typed result.
        from repro.kernels import KERNELS_BY_NAME
        from repro.service import jobs
        from repro.service.contracts import JobRequest
        probe = source.replace("int f(void)", "int ptr_probe(void)")
        request = JobRequest.make(
            "compile", "ks", source=KERNELS_BY_NAME["ks"].source + probe)
        assert jobs.execute(request)["kind"] == "compile"
