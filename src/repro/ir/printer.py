"""Human-readable textual form of the IR (LLVM-flavoured).

The printer assigns stable per-function value numbers, so printing the same
function twice gives identical text — tests rely on this determinism.
"""

from __future__ import annotations

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Call,
    Cast,
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
from .values import Argument, Constant, GlobalVariable, Value


class _Namer:
    """Assigns %N numbers to unnamed values within one function."""

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self._counter = 0

    def name(self, value: Value) -> str:
        if isinstance(value, Constant):
            return value.short_name()
        if isinstance(value, GlobalVariable):
            return f"@{value.name}"
        if isinstance(value, Function):
            return f"@{value.name}"
        if isinstance(value, BasicBlock):
            return f"%{value.short_name()}"
        if isinstance(value, Argument):
            return f"%{value.name or f'arg{value.index}'}"
        key = id(value)
        if key not in self._names:
            if value.name:
                self._names[key] = f"%{value.name}.{self._counter}"
            else:
                self._names[key] = f"%t{self._counter}"
            self._counter += 1
        return self._names[key]


def print_module(module: Module) -> str:
    """Render a whole module as LLVM-flavoured text."""

    lines = [f"; module {module.name}", *print_declarations(module)]
    for function in module.functions.values():
        lines.append("")
        lines.append(print_function(function))
    return "\n".join(lines)


def print_declarations(module: Module) -> list[str]:
    """The struct layouts and the globals (type and initializer, in
    placement order), one line each."""

    lines = []
    for struct in module.structs.values():
        if struct.is_opaque:
            lines.append(f"%{struct.name} = type opaque")
        else:
            body = ", ".join(f"{t!r} {n}" for n, t in struct.fields)
            lines.append(f"%{struct.name} = type {{ {body} }}")
    for g in module.globals.values():
        init = "zeroinitializer" if g.initializer is None else repr(g.initializer)
        lines.append(f"@{g.name} = global {g.value_type!r} {init}")
    return lines


def print_function(function: Function) -> str:
    """Render one function (or declaration) as text."""

    namer = _Namer()
    params = ", ".join(
        f"{a.type!r} {namer.name(a)}" for a in function.args
    )
    header = f"define {function.function_type.return_type!r} @{function.name}({params})"
    if function.is_declaration:
        return header.replace("define", "declare")
    lines = [header + " {"]
    for block in function.blocks:
        lines.append(f"{block.short_name()}:")
        for inst in block.instructions:
            lines.append("  " + print_instruction(inst, namer))
    lines.append("}")
    return "\n".join(lines)


def print_instruction(inst: Instruction, namer: _Namer | None = None) -> str:
    """Render a single instruction as text."""

    n = (namer or _Namer()).name

    def res() -> str:
        return f"{n(inst)} = "

    if isinstance(inst, BinaryOp):
        return f"{res()}{inst.opcode} {inst.type!r} {n(inst.lhs)}, {n(inst.rhs)}"
    if isinstance(inst, ICmp):
        return f"{res()}icmp {inst.pred} {inst.lhs.type!r} {n(inst.lhs)}, {n(inst.operands[1])}"
    if isinstance(inst, FCmp):
        return f"{res()}fcmp {inst.pred} {inst.lhs.type!r} {n(inst.lhs)}, {n(inst.operands[1])}"
    if isinstance(inst, Alloca):
        return f"{res()}alloca {inst.allocated_type!r}"
    if isinstance(inst, Load):
        return f"{res()}load {inst.type!r}, {n(inst.pointer)}"
    if isinstance(inst, Store):
        return f"store {inst.value.type!r} {n(inst.value)}, {n(inst.pointer)}"
    if isinstance(inst, GEP):
        idx = ", ".join(n(i) for i in inst.indices)
        return f"{res()}gep {n(inst.base)}, {idx}"
    if isinstance(inst, Jump):
        return f"br {n(inst.target)}"
    if isinstance(inst, CondBranch):
        return f"br i1 {n(inst.cond)}, {n(inst.if_true)}, {n(inst.if_false)}"
    if isinstance(inst, Phi):
        arms = ", ".join(
            f"[ {n(v)}, {n(b)} ]" for v, b in inst.incoming()
        )
        return f"{res()}phi {inst.type!r} {arms}"
    if isinstance(inst, Call):
        args = ", ".join(n(a) for a in inst.args)
        prefix = "" if inst.type.is_void else res()
        return f"{prefix}call {inst.type!r} @{inst.callee.name}({args})"
    if isinstance(inst, Ret):
        if inst.value is None:
            return "ret void"
        return f"ret {inst.value.type!r} {n(inst.value)}"
    if isinstance(inst, Cast):
        return f"{res()}{inst.opcode} {inst.value.type!r} {n(inst.value)} to {inst.type!r}"
    if isinstance(inst, Select):
        c, t, f = inst.operands
        return f"{res()}select i1 {n(c)}, {n(t)}, {n(f)}"
    if isinstance(inst, Produce):
        return (
            f"produce buf{inst.channel.channel_id}[{n(inst.worker_select)}], "
            f"{inst.value.type!r} {n(inst.value)}"
        )
    if isinstance(inst, ProduceBroadcast):
        return (
            f"produce_broadcast buf{inst.channel.channel_id}, "
            f"{inst.value.type!r} {n(inst.value)}"
        )
    if isinstance(inst, Consume):
        sel = "" if inst.worker_select is None else f"[{n(inst.worker_select)}]"
        return f"{res()}consume {inst.type!r} buf{inst.channel.channel_id}{sel}"
    if isinstance(inst, ParallelFork):
        liveins = ", ".join(n(v) for v in inst.liveins)
        wid = "" if inst.worker_id is None else f", worker={inst.worker_id}"
        return f"parallel_fork loop{inst.loop_id} @{inst.task.name}({liveins}){wid}"
    if isinstance(inst, ParallelJoin):
        return f"parallel_join loop{inst.loop_id}"
    if isinstance(inst, StoreLiveout):
        return f"store_liveout #{inst.liveout_id}, {inst.value.type!r} {n(inst.value)}"
    if isinstance(inst, RetrieveLiveout):
        return f"{res()}retrieve_liveout {inst.type!r} #{inst.liveout_id}"
    return f"{res()}{inst.opcode} <unprintable>"
