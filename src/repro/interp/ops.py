"""Pure operation semantics: the one place instruction values are computed.

:data:`PURE_OPS` maps each side-effect-free instruction class to its
``eval_*`` (evaluate one instruction from scratch) and its ``bind_*``
(resolve once whatever depends only on the instruction and return
``f(*operand_values)``, for a decoder that will execute it many times).
The functional interpreter's decoder, the interpretive ``HwWorker``, the
specialized engine's closure builder and the constant folder all take
their arithmetic from this table and spell none of their own, so they can
disagree on timing but never on values.
"""

from __future__ import annotations

from functools import partial

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


def eval_gep(inst: GEP, base_addr: int, index_values: list) -> int:
    """Compute a GEP address given the base and evaluated indices."""
    return _gep_address(*bind_gep(inst), base_addr, *index_values)


def _gep_address(offset: int, terms, base_addr, *index_values) -> int:
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
        return wrap_int(int(value), inst.type.bits)  # type: ignore[union-attr]
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


def bind_binop(inst: BinaryOp):
    """``f(a, b)`` equal to ``eval_binop(inst, a, b)``."""
    op = inst.opcode
    if op in FLOAT_BINOP_FUNCS:
        fn = FLOAT_BINOP_FUNCS[op]
        narrow = isinstance(inst.type, FloatType) and inst.type.bits == 32

        def float_binop(a, b):
            try:
                result = fn(a, b)
            except ZeroDivisionError:
                raise InterpError("float division by zero") from None
            return round_f32(result) if narrow else result

        return float_binop
    fn = INT_BINOP_FUNCS[op]
    bits = inst.type.bits  # type: ignore[union-attr]
    unsigned = op in UNSIGNED_BINOPS
    mask = (1 << bits) - 1
    # wrap_int inlined: values >= half are negative; i1 stays 0/1.
    half = 1 << (bits - 1) if bits > 1 else 2

    def binop(a, b):
        a = int(a)
        b = int(b)
        if unsigned:
            a &= mask
            b &= mask
        try:
            raw = fn(a, b) & mask
        except ZeroDivisionError:
            raise InterpError("integer division by zero") from None
        return raw - mask - 1 if raw >= half else raw

    return binop


def bind_icmp(inst: ICmp):
    """``f(a, b)`` equal to ``eval_icmp(inst, a, b)``."""
    fn = ICMP_FUNCS[inst.pred]
    if inst.pred.startswith("u") or inst.lhs.type.is_pointer:
        mask = (1 << (32 if inst.lhs.type.is_pointer else inst.lhs.type.bits)) - 1
        return lambda a, b: int(fn(int(a) & mask, int(b) & mask))
    return lambda a, b: int(fn(a, b))


def bind_fcmp(inst: FCmp):
    """``f(a, b)`` equal to ``eval_fcmp(inst, a, b)``."""
    fn = FCMP_FUNCS[inst.pred]
    return lambda a, b: int(fn(a, b))


def bind_cast(inst: Cast):
    """``f(value)`` equal to ``eval_cast(inst, value)``."""
    op = inst.opcode
    if op in ("trunc", "fptosi"):
        bits = inst.type.bits  # type: ignore[union-attr]
        return lambda value: wrap_int(int(value), bits)
    if op == "zext":
        mask = (1 << inst.value.type.bits) - 1  # type: ignore[union-attr]
        return lambda value: int(value) & mask
    if op == "sext":
        return int
    return partial(eval_cast, inst)


def bind_select(inst: Select):
    """``f(cond, if_true, if_false)`` equal to ``eval_select(inst, ...)``."""
    return partial(eval_select, inst)


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


#: The pure-op table: instruction class -> ``(eval, bind)``, where
#: ``eval(inst, *operand_values)`` and ``bind(inst)(*operand_values)``
#: both take the values of ``inst.operands`` in order.  A new pure opcode
#: is one entry here.  (GEP consumers that want a flatter closure use the
#: affine form :func:`bind_gep` returns; its table entry is that form.)
PURE_OPS = {
    BinaryOp: (eval_binop, bind_binop),
    ICmp: (eval_icmp, bind_icmp),
    FCmp: (eval_fcmp, bind_fcmp),
    Cast: (eval_cast, bind_cast),
    Select: (eval_select, bind_select),
    GEP: (
        lambda inst, *operands: _gep_address(*bind_gep(inst), *operands),
        lambda inst: partial(_gep_address, *bind_gep(inst)),
    ),
}
