"""IRBuilder: convenience layer for constructing instructions in order."""

from __future__ import annotations

from ..errors import IRError
from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Call,
    Cast,
    CondBranch,
    FCmp,
    ICmp,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from .types import BOOL, F64, I8, I32, I64, FloatType, IntType, Type
from .values import Constant, Value


class IRBuilder:
    """Appends instructions to an insertion block, LLVM-style."""

    def __init__(self, block: BasicBlock | None = None) -> None:
        self.block = block

    def set_block(self, block: BasicBlock) -> None:
        self.block = block

    def _insert(self, inst: Instruction) -> Instruction:
        if self.block is None:
            raise IRError("IRBuilder has no insertion block")
        return self.block.append(inst)

    # -- constants -----------------------------------------------------------

    @staticmethod
    def const_int(value: int, type_: Type = I32) -> Constant:
        return Constant(type_, int(value))

    @staticmethod
    def const_bool(value: bool) -> Constant:
        return Constant(BOOL, 1 if value else 0)

    @staticmethod
    def const_float(value: float, type_: Type = F64) -> Constant:
        return Constant(type_, float(value))

    @staticmethod
    def null(pointer_type: Type) -> Constant:
        return Constant(pointer_type, 0)

    # -- arithmetic ----------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._insert(BinaryOp(op, lhs, rhs, name))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("sdiv", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("xor", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("fadd", lhs, rhs, name)

    def fsub(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("fsub", lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("fmul", lhs, rhs, name)

    def fdiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("fdiv", lhs, rhs, name)

    def icmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._insert(ICmp(pred, lhs, rhs, name))

    def fcmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._insert(FCmp(pred, lhs, rhs, name))

    def select(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> Value:
        return self._insert(Select(cond, if_true, if_false, name))

    # -- memory --------------------------------------------------------------

    def alloca(self, allocated_type: Type, name: str = "") -> Value:
        return self._insert(Alloca(allocated_type, name))

    def load(self, pointer: Value, name: str = "") -> Value:
        return self._insert(Load(pointer, name))

    def store(self, value: Value, pointer: Value) -> Value:
        return self._insert(Store(value, pointer))

    def gep(self, base: Value, indices: list[Value], name: str = "") -> Value:
        return self._insert(GEP(base, indices, name))

    def struct_gep(self, base: Value, field_index: int, name: str = "") -> Value:
        """Address of field ``field_index`` of ``*base`` (a struct pointer)."""
        return self.gep(base, [self.const_int(0), self.const_int(field_index)], name)

    # -- control flow ----------------------------------------------------------

    def jump(self, target: BasicBlock) -> Value:
        return self._insert(Jump(target))

    def cond_branch(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Value:
        return self._insert(CondBranch(cond, if_true, if_false))

    def phi(self, type_: Type, name: str = "") -> Phi:
        if self.block is None:
            raise IRError("IRBuilder has no insertion block")
        node = Phi(type_, name)
        self.block.insert(self.block.first_non_phi_index(), node)
        return node

    def call(self, callee: Function, args: list[Value], name: str = "") -> Value:
        return self._insert(Call(callee, args, name))

    def ret(self, value: Value | None = None) -> Value:
        return self._insert(Ret(value))

    # -- casts -----------------------------------------------------------------

    def cast(self, op: str, value: Value, to_type: Type, name: str = "") -> Value:
        if value.type == to_type:
            return value
        return self._insert(Cast(op, value, to_type, name))

    def int_cast(self, value: Value, to_type: IntType, name: str = "") -> Value:
        """Signed integer resize (sext/trunc as needed)."""
        if value.type == to_type:
            return value
        assert isinstance(value.type, IntType)
        if value.type.bits < to_type.bits:
            op = "zext" if value.type.bits == 1 else "sext"
            return self.cast(op, value, to_type, name)
        return self.cast("trunc", value, to_type, name)
