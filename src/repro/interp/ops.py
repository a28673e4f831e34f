"""Pure operation semantics shared by the interpreter and the HW worker.

Keeping one implementation of arithmetic/GEP/cast semantics guarantees the
functional interpreter and the cycle-accurate FSM simulator can never
disagree on values — only on timing.

``eval_*`` evaluate one instruction from scratch (the interpretive HW
worker's form); ``bind_*`` resolve once whatever depends only on the
instruction, for a decoder that will execute it many times.
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
)
from ..ir.types import ArrayType, FloatType, StructType
from ..ir.values import Constant
from .memory import round_f32, to_unsigned, wrap_int

#: Integer opcodes whose operands are reinterpreted as unsigned first.
UNSIGNED_BINOPS = ("udiv", "urem", "lshr", "ult")


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


def bind_binop(inst: BinaryOp):
    """``f(a, b)`` equal to ``eval_binop(inst, a, b)``."""
    op = inst.opcode
    if op in FLOAT_BINOP_FUNCS:
        return partial(eval_binop, inst)
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
