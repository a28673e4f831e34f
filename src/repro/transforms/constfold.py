"""Constant folding and algebraic simplification.

A constant-operand instruction is evaluated by the same
:data:`repro.interp.ops.PURE_OPS` entry every engine executes it with, so
folding can never change observable behaviour: it folds to the value the
interpreter would compute, or it leaves the instruction in place.
"""

from __future__ import annotations

from ..errors import InterpError
from ..interp.ops import PURE_OPS
from ..ir.function import Function
from ..ir.instructions import GEP, BinaryOp, Instruction, Select, erase_all
from ..ir.types import IntType
from ..ir.values import Constant, Value


def fold_constants(function: Function) -> int:
    """Fold instructions whose operands are constants; returns fold count."""
    folded = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            dead = []
            for inst in block.instructions:
                replacement = _fold(inst)
                if replacement is not None:
                    inst.replace_all_uses_with(replacement)
                    if not inst.users:
                        dead.append(inst)
                    folded += 1
                    changed = True
            erase_all(dead)
    return folded


def _fold(inst: Instruction) -> Value | None:
    evaluate = PURE_OPS.get(type(inst))
    if evaluate is None or isinstance(inst, GEP):
        return None
    if isinstance(inst, Select):
        # Only the condition need be constant: the arms pass through.
        cond, if_true, if_false = inst.operands
        if isinstance(cond, Constant):
            return evaluate(inst, cond.value, if_true, if_false)
        return None
    if not all(isinstance(op, Constant) for op in inst.operands):
        # Algebraic identities with one constant operand.
        return _fold_identity(inst) if isinstance(inst, BinaryOp) else None
    try:
        value = evaluate(inst, *(op.value for op in inst.operands))
    except InterpError:
        return None  # a trap (division by zero, fptosi of inf/nan): leave it in place
    return Constant(inst.type, value) if _representable(inst.type, value) else None


def _representable(type_, value) -> bool:
    """Is ``value`` one a register of ``type_`` can hold after a store and
    reload?  (``ptrtoint`` of a high address is not: the engines carry it
    unsigned in an ``i32``, which no in-range constant equals.)"""
    if isinstance(type_, IntType):
        half = 1 << (type_.bits - 1)
        return 0 <= value <= 1 if type_.bits == 1 else -half <= value < half
    return not type_.is_pointer or 0 <= value <= 0xFFFFFFFF


def _fold_identity(inst: BinaryOp) -> Value | None:
    lhs, rhs = inst.lhs, inst.rhs
    op = inst.opcode
    if isinstance(rhs, Constant):
        v = rhs.value
        if op in ("add", "sub", "or", "xor", "shl", "ashr", "lshr") and v == 0:
            return lhs
        if op in ("mul",) and v == 1:
            return lhs
        if op in ("sdiv", "udiv") and v == 1:
            return lhs
        if op == "mul" and v == 0:
            return Constant(inst.type, 0)
        if op == "and" and v == 0:
            return Constant(inst.type, 0)
        if op == "fadd" and v == 0.0:
            return lhs
        if op == "fmul" and v == 1.0:
            return lhs
    if isinstance(lhs, Constant):
        v = lhs.value
        if op in ("add", "or", "xor") and v == 0:
            return rhs
        if op == "mul" and v == 1:
            return rhs
        if op == "mul" and v == 0:
            return Constant(inst.type, 0)
        if op == "and" and v == 0:
            return Constant(inst.type, 0)
    return None
