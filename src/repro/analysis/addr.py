"""Shared address-expression decomposition helpers.

Both the points-to solver (field-sensitive heap edges) and the loop memory
dependence analysis (offset-interval disambiguation) need to strip a
pointer expression down to its root value plus a constant byte offset.
mem2reg and the PDG share :func:`promotable_allocas`: the slots mem2reg
turns into registers are the ones the PDG refuses to see still in memory.
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import GEP, Alloca, Cast, Load, Store
from ..ir.types import ArrayType, FloatType, IntType, PointerType, StructType
from ..ir.values import Constant, Value


def promotable_allocas(function: Function) -> list[Alloca]:
    """Scalar slots whose address never escapes (only direct load/store)."""
    result = []
    for inst in function.entry.instructions:
        if not isinstance(inst, Alloca):
            continue
        if not isinstance(inst.allocated_type, (IntType, FloatType, PointerType)):
            continue
        promotable = True
        for user in inst.users:
            if isinstance(user, Load) and user.pointer is inst:
                continue
            if isinstance(user, Store) and user.pointer is inst and user.value is not inst:
                continue
            promotable = False
            break
        if promotable:
            result.append(inst)
    return result


def strip_casts(value: Value) -> Value:
    """Walk through pointer bitcasts."""
    while isinstance(value, Cast) and value.opcode in ("bitcast",):
        value = value.value
    return value


def gep_constant_offset(gep: GEP) -> int | None:
    """Byte offset a GEP adds, or None when any index is non-constant."""
    pointee = gep.base.type.pointee  # type: ignore[union-attr]
    indices = gep.indices
    if not isinstance(indices[0], Constant):
        return None
    total = pointee.size() * int(indices[0].value)
    current = pointee
    for idx in indices[1:]:
        if isinstance(current, StructType):
            field = int(idx.value)  # type: ignore[union-attr]
            total += current.field_offset(field)
            current = current.field_type(field)
        elif isinstance(current, ArrayType):
            if not isinstance(idx, Constant):
                return None
            total += current.element.size() * int(idx.value)
            current = current.element
        else:
            return None
    return total


def strip_constant_offsets(pointer: Value) -> tuple[Value, int | None]:
    """Walk casts and GEPs; returns (root value, byte offset or None).

    The offset is ``None`` when a variable index is crossed; the root is
    still the correct base object for points-to purposes.
    """
    offset: int | None = 0
    current = pointer
    while True:
        current = strip_casts(current)
        if isinstance(current, GEP):
            step = gep_constant_offset(current)
            if step is None:
                offset = None
            elif offset is not None:
                offset += step
            current = current.base
            continue
        return current, offset
