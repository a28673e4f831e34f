"""Typed, SSA-based intermediate representation for the CGPA tool.

The IR mirrors the subset of LLVM the paper's compiler manipulates, plus
the CGPA pipeline primitives of Table 1.
"""

from .basicblock import BasicBlock
from .builder import IRBuilder
from .function import Function
from .instructions import (
    BINOPS,
    CAST_OPS,
    FCMP_PREDS,
    FLOAT_BINOPS,
    HEAVYWEIGHT_OPCODES,
    ICMP_PREDS,
    INT_BINOPS,
    GEP,
    Alloca,
    BinaryOp,
    Call,
    Cast,
    CgpaPrimitive,
    CondBranch,
    Consume,
    FCmp,
    ICmp,
    Instruction,
    Jump,
    Load,
    ParallelFork,
    ParallelJoin,
    Phi,
    Produce,
    ProduceBroadcast,
    Ret,
    RetrieveLiveout,
    Select,
    Store,
    StoreLiveout,
)
from .module import Module
from .primitives import DEFAULT_FIFO_DEPTH, DEFAULT_FIFO_WIDTH, Channel, ChannelPlan
from .printer import print_function, print_instruction, print_module
from .types import (
    BOOL,
    F32,
    F64,
    I8,
    I16,
    I32,
    I64,
    LABEL,
    POINTER_SIZE,
    VOID,
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    LabelType,
    PointerType,
    StructType,
    Type,
    VoidType,
    ptr,
)
from .values import Argument, Constant, GlobalVariable, Value
from .verifier import verify_function, verify_module

__all__ = [
    "BasicBlock", "IRBuilder", "Function", "Module",
    "Instruction", "BinaryOp", "ICmp", "FCmp", "Alloca", "Load", "Store",
    "GEP", "Jump", "CondBranch", "Phi", "Call", "Ret", "Cast", "Select",
    "CgpaPrimitive", "Produce", "ProduceBroadcast", "Consume",
    "ParallelFork", "ParallelJoin", "StoreLiveout", "RetrieveLiveout",
    "Channel", "ChannelPlan", "DEFAULT_FIFO_DEPTH", "DEFAULT_FIFO_WIDTH",
    "print_module", "print_function", "print_instruction",
    "verify_module", "verify_function",
    "Type", "VoidType", "IntType", "FloatType", "PointerType", "ArrayType",
    "StructType", "FunctionType", "LabelType", "ptr",
    "VOID", "BOOL", "I8", "I16", "I32", "I64", "F32", "F64", "LABEL",
    "POINTER_SIZE",
    "Value", "Constant", "Argument", "GlobalVariable",
    "BINOPS", "INT_BINOPS", "FLOAT_BINOPS", "ICMP_PREDS", "FCMP_PREDS",
    "CAST_OPS", "HEAVYWEIGHT_OPCODES",
]
