"""Pure operation semantics: the one place instruction values are computed.

:data:`PURE_OPS` maps each side-effect-free instruction class to its
``eval_*`` (evaluate one instruction from scratch, the reference), and
:data:`FORMS` spells each such op once more, as a Python expression the
code generators paste inline.  The functional interpreter, both hardware
workers and the constant folder take their arithmetic from here and spell
none of their own, so they can disagree on timing but never on values.
"""

from __future__ import annotations

from functools import lru_cache, partial

from ..errors import InterpError
from ..ir.instructions import (
    FCMP_FUNCS,
    FLOAT_BINOP_FUNCS,
    ICMP_FUNCS,
    INT_BINOP_FUNCS,
    GEP,
    BinaryOp,
    Cast,
    FCmp,
    ICmp,
    Select,
)
from ..ir.types import ArrayType, FloatType, StructType
from ..ir.values import Constant
from .memory import round_f32, to_unsigned, wrap_int

#: Integer opcodes whose operands are reinterpreted as unsigned first.
UNSIGNED_BINOPS = ("udiv", "urem", "lshr")


def eval_binop(inst: BinaryOp, a, b):
    """Evaluate a binary operation with machine semantics."""

    op = inst.opcode
    if op in FLOAT_BINOP_FUNCS:
        try:
            result = FLOAT_BINOP_FUNCS[op](a, b)
        except ZeroDivisionError:
            raise InterpError("float division by zero") from None
        if isinstance(inst.type, FloatType) and inst.type.bits == 32:
            result = round_f32(result)
        return result
    bits = inst.type.bits  # type: ignore[union-attr]
    if op in UNSIGNED_BINOPS:
        a = to_unsigned(int(a), bits)
        b = to_unsigned(int(b), bits)
    try:
        raw = INT_BINOP_FUNCS[op](int(a), int(b))
    except ZeroDivisionError:
        raise InterpError("integer division by zero") from None
    return wrap_int(raw, bits)


def eval_icmp(inst: ICmp, a, b) -> int:
    """Evaluate an integer/pointer comparison to 0 or 1."""

    if inst.pred.startswith("u") or inst.lhs.type.is_pointer:
        bits = 32 if inst.lhs.type.is_pointer else inst.lhs.type.bits
        a = to_unsigned(int(a), bits)
        b = to_unsigned(int(b), bits)
    return int(ICMP_FUNCS[inst.pred](a, b))


def eval_fcmp(inst: FCmp, a, b) -> int:
    """Evaluate a floating-point comparison to 0 or 1."""

    return int(FCMP_FUNCS[inst.pred](a, b))


def eval_gep(inst: GEP, base_addr: int, *index_values) -> int:
    """Compute a GEP address given the base and evaluated indices."""
    offset, terms = bind_gep(inst)
    addr = int(base_addr) + offset
    for scale, position in terms:
        addr += scale * int(index_values[position])
    return addr & 0xFFFFFFFF


def eval_cast(inst: Cast, value):
    """Evaluate a type conversion with machine semantics."""

    op = inst.opcode
    if op == "trunc":
        return wrap_int(int(value), inst.type.bits)  # type: ignore[union-attr]
    if op == "zext":
        return to_unsigned(int(value), inst.value.type.bits)  # type: ignore[union-attr]
    if op == "sext":
        return int(value)
    if op == "fptosi":
        return wrap_int(_truncated(value), inst.type.bits)  # type: ignore[union-attr]
    if op == "sitofp":
        result = float(value)
        if isinstance(inst.type, FloatType) and inst.type.bits == 32:
            result = round_f32(result)
        return result
    if op == "fpext":
        return float(value)
    if op == "fptrunc":
        return round_f32(float(value))
    if op in ("bitcast", "ptrtoint", "inttoptr"):
        if inst.type.is_pointer or op == "ptrtoint":
            return int(value) & 0xFFFFFFFF
        return value
    raise InterpError(f"cannot evaluate cast {op}")


def eval_select(inst: Select, cond, if_true, if_false):
    """Evaluate a ternary select (the arms pass through untouched)."""
    return if_true if cond else if_false


def _quotient(fn, kind: str, a, b):
    try:
        return fn(a, b)
    except ZeroDivisionError:
        raise InterpError(f"{kind} division by zero") from None


def _truncated(value) -> int:
    """``fptosi``'s integer part: ±inf and NaN have none, and trap."""
    try:
        return int(value)
    except (OverflowError, ValueError):
        raise InterpError(f"fptosi of non-finite {value!r}") from None


#: Python infix spelling of the binops and predicates that have one.
_INFIX = {
    "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^",
    "fadd": "+", "fsub": "-", "fmul": "*",
    "eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
    "ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
    "oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">=",
}


def _wrapped(expr: str, bits: int) -> str:
    """``expr`` wrapped to a signed ``bits``-wide integer (``wrap_int``)."""
    if bits == 1:
        return f"({expr}) & 1"
    half = 1 << (bits - 1)
    return f"(({expr}) + {half} & {2 * half - 1}) - {half}"


def form_binop(inst: BinaryOp, a: str, b: str, ref) -> str:
    op = inst.opcode
    if op in FLOAT_BINOP_FUNCS:
        if op in _INFIX:
            expr = f"{a} {_INFIX[op]} {b}"
        else:  # a division traps on zero
            expr = f"{ref(_quotient)}({ref(FLOAT_BINOP_FUNCS[op])}, {ref('float')}, {a}, {b})"
        narrow = isinstance(inst.type, FloatType) and inst.type.bits == 32
        return f"{ref(round_f32)}({expr})" if narrow else expr
    bits = inst.type.bits  # type: ignore[union-attr]
    if op in UNSIGNED_BINOPS:
        mask = (1 << bits) - 1
        a, b = f"{ref(int)}({a}) & {mask}", f"{ref(int)}({b}) & {mask}"
    if op in _INFIX:
        expr = f"{a} {_INFIX[op]} {b}"
    elif op in ("shl", "ashr", "lshr"):
        expr = f"({a}) {'<<' if op == 'shl' else '>>'} ({b} & 63)"
    else:  # a division traps on zero
        if op not in UNSIGNED_BINOPS:
            a, b = f"{ref(int)}({a})", f"{ref(int)}({b})"
        expr = f"{ref(_quotient)}({ref(INT_BINOP_FUNCS[op])}, {ref('integer')}, {a}, {b})"
    return _wrapped(expr, bits)


def form_compare(inst: ICmp | FCmp, a: str, b: str, ref) -> str:
    if inst.pred.startswith("u") or inst.lhs.type.is_pointer:
        mask = (1 << (32 if inst.lhs.type.is_pointer else inst.lhs.type.bits)) - 1
        a, b = f"({a} & {mask})", f"({b} & {mask})"
    return f"1 if {a} {_INFIX[inst.pred]} {b} else 0"


def form_cast(inst: Cast, value: str, ref) -> str:
    op = inst.opcode
    if op in ("trunc", "fptosi"):
        to_int = ref(int if op == "trunc" else _truncated)
        return _wrapped(f"{to_int}({value})", inst.type.bits)  # type: ignore[union-attr]
    if op == "zext":
        return f"{ref(int)}({value}) & {(1 << inst.value.type.bits) - 1}"  # type: ignore[union-attr]
    if op == "sext":
        return f"{ref(int)}({value})"
    if op in ("sitofp", "fpext", "fptrunc"):
        narrow = op == "fptrunc" or op == "sitofp" and inst.type.bits == 32  # type: ignore[union-attr]
        value = f"{ref(float)}({value})"
        return f"{ref(round_f32)}({value})" if narrow else value
    if op in ("bitcast", "ptrtoint", "inttoptr"):
        if inst.type.is_pointer or op == "ptrtoint":
            return f"{ref(int)}({value}) & 4294967295"
        return value
    return f"{ref(partial(eval_cast, inst))}({value})"  # raises: no such cast


def form_select(inst: Select, cond: str, if_true: str, if_false: str, ref) -> str:
    return f"{if_true} if {cond} else {if_false}"


def form_gep(inst: GEP, base: str, *indices: str, ref) -> str:
    offset, terms = bind_gep(inst)
    addr = [base, str(offset)] if offset else [base]
    addr += [f"{scale} * {indices[position]}" for scale, position in terms]
    return f"({' + '.join(addr)}) & 4294967295"


#: Instruction class -> its *expression form*: ``form(inst, *operand_texts,
#: ref=...)`` spells the op as one Python expression over the operand
#: texts (generated names or ``int`` literals); anything else it needs (a
#: float constant, ``round_f32``, a trapping division) it names through
#: ``ref(obj) -> name``.  The generators paste the form inline, and it
#: computes what ``eval_*`` computes, bit for bit, on values of the
#: operands' types; where ``eval_*`` coerces through ``int`` (casts,
#: unsigned ops) the form does too.
FORMS = {
    BinaryOp: form_binop,
    ICmp: form_compare,
    FCmp: form_compare,
    Cast: form_cast,
    Select: form_select,
    GEP: form_gep,
}


def compile_text(text: str):
    """Generated text to code."""
    return compile(text, "<generated>", "exec")


#: Generated text to code, memoised: a process compiles each text once.
code_of = lru_cache(maxsize=1024)(compile_text)


def expression(inst, operands: list[str], ref) -> str:
    """``inst``'s expression form over ``operands`` (one text per operand)."""
    return FORMS[type(inst)](inst, *operands, ref=ref)


def bind_gep(inst: GEP) -> tuple[int, list[tuple[int, int]]]:
    """Reduce a GEP to ``base + offset + sum(scale * indices[position])``.

    Returns ``(offset, terms)``: the folded constant part and one
    ``(scale, position)`` per non-constant index (struct field indices
    are constants by construction).
    """
    current = inst.base.type.pointee  # type: ignore[union-attr]
    offset = 0
    terms: list[tuple[int, int]] = []
    for position, idx in enumerate(inst.indices):
        if position == 0:
            scale = current.size()
        elif isinstance(current, StructType):
            field = int(idx.value)  # type: ignore[attr-defined]
            offset += current.field_offset(field)
            current = current.field_type(field)
            continue
        elif isinstance(current, ArrayType):
            current = current.element
            scale = current.size()
        else:
            raise InterpError(f"gep through non-aggregate {current!r}")
        if isinstance(idx, Constant):
            offset += scale * int(idx.value)
        else:
            terms.append((scale, position))
    return offset, terms


#: The pure-op table: instruction class -> ``eval(inst, *operand_values)``,
#: over the values of ``inst.operands`` in order.  A new pure opcode is one
#: entry here and one in :data:`FORMS`.
PURE_OPS = {
    BinaryOp: eval_binop,
    ICmp: eval_icmp,
    FCmp: eval_fcmp,
    Cast: eval_cast,
    Select: eval_select,
    GEP: eval_gep,
}
