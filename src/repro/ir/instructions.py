"""IR instruction set.

The instruction set is LLVM-flavoured (typed SSA, explicit memory ops,
``getelementptr`` address arithmetic) plus the seven CGPA primitives of the
paper's Table 1 (``produce``, ``produce_broadcast``, ``consume``,
``parallel_fork``, ``parallel_join``, ``store_liveout``,
``retrieve_liveout``).  Those primitives carry the cross-stage dependences
of a pipelined loop and are given dedicated classes because the RTL
scheduler imposes the paper's constraints (1)-(4) on them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..errors import IRError
from .types import (
    BOOL,
    VOID,
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
)
from .values import Constant, Value

if TYPE_CHECKING:  # pragma: no cover
    from .basicblock import BasicBlock
    from .function import Function
    from .primitives import Channel


# Integer and float binary opcodes.
INT_BINOPS = {
    "add", "sub", "mul", "sdiv", "srem", "udiv", "urem",
    "and", "or", "xor", "shl", "ashr", "lshr",
}
FLOAT_BINOPS = {"fadd", "fsub", "fmul", "fdiv"}
BINOPS = INT_BINOPS | FLOAT_BINOPS

ICMP_PREDS = {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
FCMP_PREDS = {"oeq", "one", "olt", "ole", "ogt", "oge"}

CAST_OPS = {
    "trunc", "zext", "sext", "fptosi", "sitofp",
    "fpext", "fptrunc", "bitcast", "ptrtoint", "inttoptr",
}

#: Opcodes the paper's replicable-section heuristic treats as heavyweight:
#: a replicable SCC containing a load or a multiply is *not* duplicated
#: into the parallel stage (Section 3.3, "Pipeline Partition").
HEAVYWEIGHT_OPCODES = {"load", "mul", "fmul", "sdiv", "udiv", "fdiv", "srem", "urem", "call"}


class Instruction(Value):
    """Base class for all instructions.

    An instruction is itself a :class:`Value` (its result).  Instructions
    with no result have :data:`repro.ir.types.VOID` type.
    """

    opcode: str = "<abstract>"

    def __init__(self, type_: Type, operands: Iterable[Value], name: str = "") -> None:
        super().__init__(type_, name)
        self.parent: "BasicBlock | None" = None
        self.operands: list[Value] = []
        for op in operands:
            self._append_operand(op)

    # -- operand management -------------------------------------------------

    def _append_operand(self, op: Value) -> None:
        if not isinstance(op, Value):
            raise IRError(f"operand of {self.opcode} is not a Value: {op!r}")
        self.operands.append(op)
        op.add_user(self)

    def replace_operand(self, old: Value, new: Value) -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                new.add_user(self)
        old.remove_user(self)

    def drop_operands(self) -> None:
        """Detach from all operands (:func:`erase_all` does this first)."""
        for op in self.operands:
            op._users.pop(self, None)
        self.operands = []

    def erase(self) -> None:
        """Remove this instruction from its block and the use graph."""
        erase_all([self])

    # -- classification ------------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return False

    @property
    def may_write_memory(self) -> bool:
        return False

    @property
    def has_side_effects(self) -> bool:
        """True if removing the instruction could change program behaviour.

        This is the notion the paper uses to distinguish *replicable*
        sequential sections (safe to run redundantly in several workers)
        from plain sequential ones.
        """
        return self.may_write_memory or self.is_terminator

    @property
    def is_heavyweight(self) -> bool:
        """True for ops the replicable-placement heuristic refuses to copy."""
        return self.opcode in HEAVYWEIGHT_OPCODES

    # -- cloning --------------------------------------------------------------

    def clone(self, value_map: dict[Value, Value]) -> "Instruction":
        """Structurally copy this instruction, remapping operands.

        ``value_map`` maps old values (and old blocks, for terminators and
        phis) to their replacements; unmapped operands are reused as-is
        (constants, arguments, values defined outside the cloned region).
        """
        new_ops = [value_map.get(op, op) for op in self.operands]
        copy = self._clone_impl(new_ops, value_map)
        copy.name = self.name
        return copy

    def _clone_impl(
        self, operands: list[Value], value_map: dict[Value, Value]
    ) -> "Instruction":
        raise IRError(f"clone not implemented for {self.opcode}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.opcode} {self.short_name()}>"


def erase_all(dead: Iterable[Instruction]) -> None:
    """Remove ``dead`` from their blocks and the use graph: the one way IR
    is deleted.

    Every member's operands are dropped first, so members may use each
    other (a phi web, a deleted loop body); a member still used after that
    has a user outside the set, which is an :class:`IRError`.  Each touched
    block is compacted once, so the cost is linear in the members and the
    blocks they leave.
    """
    dead = list(dead)
    for inst in dead:
        inst.drop_operands()
    touched = {inst.parent for inst in dead if inst.parent is not None}
    for inst in dead:
        if inst._users:
            raise IRError(f"erasing {inst.opcode} that still has users")
        inst.parent = None
    for block in touched:
        block.instructions = [i for i in block.instructions if i.parent is block]


class BinaryOp(Instruction):
    """Two-operand arithmetic/logic: ``add``, ``fmul``, ``xor``, ..."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if op not in BINOPS:
            raise IRError(f"unknown binary opcode: {op}")
        if lhs.type != rhs.type:
            raise IRError(f"{op} operand type mismatch: {lhs.type!r} vs {rhs.type!r}")
        if op in FLOAT_BINOPS and not lhs.type.is_float:
            raise IRError(f"{op} requires float operands, got {lhs.type!r}")
        if op in INT_BINOPS and not lhs.type.is_integer:
            raise IRError(f"{op} requires integer operands, got {lhs.type!r}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def _clone_impl(self, operands, value_map):
        return BinaryOp(self.opcode, operands[0], operands[1])


class ICmp(Instruction):
    """Integer/pointer comparison producing an ``i1``."""

    opcode = "icmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if pred not in ICMP_PREDS:
            raise IRError(f"unknown icmp predicate: {pred}")
        if lhs.type != rhs.type:
            raise IRError(f"icmp type mismatch: {lhs.type!r} vs {rhs.type!r}")
        super().__init__(BOOL, [lhs, rhs], name)
        self.pred = pred

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def _clone_impl(self, operands, value_map):
        return ICmp(self.pred, operands[0], operands[1])


class FCmp(Instruction):
    """Floating-point comparison producing an ``i1``."""

    opcode = "fcmp"

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if pred not in FCMP_PREDS:
            raise IRError(f"unknown fcmp predicate: {pred}")
        if lhs.type != rhs.type or not lhs.type.is_float:
            raise IRError(f"fcmp type mismatch: {lhs.type!r} vs {rhs.type!r}")
        super().__init__(BOOL, [lhs, rhs], name)
        self.pred = pred

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def _clone_impl(self, operands, value_map):
        return FCmp(self.pred, operands[0], operands[1])


class Alloca(Instruction):
    """Stack allocation of one object of ``allocated_type``."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type

    def _clone_impl(self, operands, value_map):
        return Alloca(self.allocated_type)


class Load(Instruction):
    """Memory read through a typed pointer."""

    opcode = "load"

    def __init__(self, pointer: Value, name: str = "") -> None:
        if not pointer.type.is_pointer:
            raise IRError(f"load from non-pointer: {pointer.type!r}")
        super().__init__(pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    def _clone_impl(self, operands, value_map):
        return Load(operands[0])


class Store(Instruction):
    """Memory write through a typed pointer."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value) -> None:
        if not pointer.type.is_pointer:
            raise IRError(f"store to non-pointer: {pointer.type!r}")
        if pointer.type.pointee != value.type:
            raise IRError(
                f"store type mismatch: {value.type!r} into {pointer.type!r}"
            )
        super().__init__(VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    @property
    def may_write_memory(self) -> bool:
        return True

    def _clone_impl(self, operands, value_map):
        return Store(operands[0], operands[1])


class GEP(Instruction):
    """``getelementptr``: typed address arithmetic, LLVM semantics.

    The first index scales by the size of the pointee; later indices step
    into aggregate types (constant field index for structs, any value for
    arrays).  GEP never touches memory; it only computes an address.
    """

    opcode = "gep"

    def __init__(self, base: Value, indices: list[Value], name: str = "") -> None:
        if not base.type.is_pointer:
            raise IRError(f"gep base is not a pointer: {base.type!r}")
        if not indices:
            raise IRError("gep needs at least one index")
        result = _gep_result_type(base.type, indices)
        super().__init__(result, [base] + list(indices), name)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> list[Value]:
        return self.operands[1:]

    def _clone_impl(self, operands, value_map):
        return GEP(operands[0], operands[1:])


def _gep_result_type(base: PointerType, indices: list[Value]) -> PointerType:
    current: Type = base.pointee
    for idx in indices[1:]:
        if isinstance(current, StructType):
            if not isinstance(idx, Constant):
                raise IRError("struct gep index must be a constant")
            current = current.field_type(int(idx.value))
        elif isinstance(current, ArrayType):
            current = current.element
        else:
            raise IRError(f"gep steps into non-aggregate type {current!r}")
    return PointerType(current)


class Jump(Instruction):
    """Unconditional branch."""

    opcode = "br"

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(VOID, [target])

    @property
    def target(self) -> "BasicBlock":
        return self.operands[0]  # type: ignore[return-value]

    @property
    def is_terminator(self) -> bool:
        return True

    def successors(self) -> list["BasicBlock"]:
        return [self.target]

    def _clone_impl(self, operands, value_map):
        return Jump(operands[0])


class CondBranch(Instruction):
    """Conditional two-way branch on an ``i1``."""

    opcode = "condbr"

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock") -> None:
        if cond.type != BOOL:
            raise IRError(f"branch condition must be i1, got {cond.type!r}")
        super().__init__(VOID, [cond, if_true, if_false])

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def if_true(self) -> "BasicBlock":
        return self.operands[1]  # type: ignore[return-value]

    @property
    def if_false(self) -> "BasicBlock":
        return self.operands[2]  # type: ignore[return-value]

    @property
    def is_terminator(self) -> bool:
        return True

    def successors(self) -> list["BasicBlock"]:
        return [self.if_true, self.if_false]

    def _clone_impl(self, operands, value_map):
        return CondBranch(operands[0], operands[1], operands[2])


class Phi(Instruction):
    """SSA phi node; operand i arrives from ``incoming_blocks[i]``."""

    opcode = "phi"

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(type_, [], name)
        self.incoming_blocks: list["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise IRError(
                f"phi incoming type {value.type!r} differs from {self.type!r}"
            )
        self._append_operand(value)
        self.incoming_blocks.append(block)

    def incoming(self) -> list[tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming():
            if pred is block:
                return value
        raise IRError(f"phi has no incoming value for block {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                old = self.operands.pop(i)
                self.incoming_blocks.pop(i)
                old.remove_user(self)
                return
        raise IRError(f"phi has no incoming edge from {block.name}")

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self.incoming_blocks = [new if b is old else b for b in self.incoming_blocks]

    def _clone_impl(self, operands, value_map):
        copy = Phi(self.type)
        for op, block in zip(operands, self.incoming_blocks):
            copy._append_operand(op)
            copy.incoming_blocks.append(value_map.get(block, block))  # type: ignore[arg-type]
        return copy


class Call(Instruction):
    """Direct call to a module-level function."""

    opcode = "call"

    def __init__(self, callee: "Function", args: list[Value], name: str = "") -> None:
        ftype = callee.function_type
        if len(args) != len(ftype.param_types):
            raise IRError(
                f"call to {callee.name}: expected {len(ftype.param_types)} "
                f"args, got {len(args)}"
            )
        for arg, expected in zip(args, ftype.param_types):
            if arg.type != expected:
                raise IRError(
                    f"call to {callee.name}: arg type {arg.type!r} != {expected!r}"
                )
        super().__init__(ftype.return_type, list(args), name)
        self.callee = callee

    @property
    def args(self) -> list[Value]:
        return self.operands

    @property
    def may_write_memory(self) -> bool:
        return True  # refined by interprocedural mod/ref analysis

    def _clone_impl(self, operands, value_map):
        return Call(self.callee, operands)


class Ret(Instruction):
    """Function return, with an optional value."""

    opcode = "ret"

    def __init__(self, value: Value | None = None) -> None:
        super().__init__(VOID, [] if value is None else [value])

    @property
    def value(self) -> Value | None:
        return self.operands[0] if self.operands else None

    @property
    def is_terminator(self) -> bool:
        return True

    def successors(self) -> list["BasicBlock"]:
        return []

    def _clone_impl(self, operands, value_map):
        return Ret(operands[0] if operands else None)


class Cast(Instruction):
    """Type conversion (``sext``, ``sitofp``, ``bitcast``, ...)."""

    def __init__(self, op: str, value: Value, to_type: Type, name: str = "") -> None:
        if op not in CAST_OPS:
            raise IRError(f"unknown cast opcode: {op}")
        super().__init__(to_type, [value], name)
        self.opcode = op

    @property
    def value(self) -> Value:
        return self.operands[0]

    def _clone_impl(self, operands, value_map):
        return Cast(self.opcode, operands[0], self.type)


class Select(Instruction):
    """Ternary select: ``cond ? if_true : if_false``."""

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> None:
        if cond.type != BOOL:
            raise IRError(f"select condition must be i1, got {cond.type!r}")
        if if_true.type != if_false.type:
            raise IRError("select arm types differ")
        super().__init__(if_true.type, [cond, if_true, if_false], name)

    def _clone_impl(self, operands, value_map):
        return Select(operands[0], operands[1], operands[2])


# ---------------------------------------------------------------------------
# CGPA primitives (paper Table 1)
# ---------------------------------------------------------------------------


class CgpaPrimitive(Instruction):
    """Marker base class for the Table 1 primitives.

    ``constraint_class`` is the paper's Class column: 1 for fork/join, 2
    for the FIFO primitives, 3 for live-out registers.  The RTL scheduler
    keys its constraints (1)-(4) off this attribute.
    """

    constraint_class: int = 0


class Produce(CgpaPrimitive):
    """Push ``value`` to one FIFO channel of a multi-channel buffer.

    ``worker_select`` picks the destination channel (the paper's
    ``WorkerID`` argument); for a single-consumer buffer it is a constant
    zero.
    """

    opcode = "produce"
    constraint_class = 2

    def __init__(self, channel: "Channel", worker_select: Value, value: Value) -> None:
        super().__init__(VOID, [worker_select, value])
        self.channel = channel

    @property
    def worker_select(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]

    @property
    def has_side_effects(self) -> bool:
        return True

    def _clone_impl(self, operands, value_map):
        return Produce(self.channel, operands[0], operands[1])


class ProduceBroadcast(CgpaPrimitive):
    """Push ``value`` to every channel of the buffer (all consumers)."""

    opcode = "produce_broadcast"
    constraint_class = 2

    def __init__(self, channel: "Channel", value: Value) -> None:
        super().__init__(VOID, [value])
        self.channel = channel

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def has_side_effects(self) -> bool:
        return True

    def _clone_impl(self, operands, value_map):
        return ProduceBroadcast(self.channel, operands[0])


class Consume(CgpaPrimitive):
    """Pop one value from a channel of the buffer.

    With no selector the worker pops its own channel (indexed by its
    worker id).  A sequential stage consuming round-robin from parallel
    producers passes an explicit ``worker_select`` (paper Appendix A.1:
    "the sequential worker completes its task by fetching index values
    from the buffers on a round-robin basis").
    """

    opcode = "consume"
    constraint_class = 2

    def __init__(
        self,
        channel: "Channel",
        type_: Type,
        worker_select: Value | None = None,
        name: str = "",
    ) -> None:
        super().__init__(type_, [] if worker_select is None else [worker_select], name)
        self.channel = channel

    @property
    def worker_select(self) -> Value | None:
        return self.operands[0] if self.operands else None

    @property
    def has_side_effects(self) -> bool:
        return True  # popping mutates FIFO state; never DCE a consume

    def _clone_impl(self, operands, value_map):
        return Consume(self.channel, self.type, operands[0] if operands else None)


class ParallelFork(CgpaPrimitive):
    """Invoke one hardware worker for a task (paper: ``parallel_fork``)."""

    opcode = "parallel_fork"
    constraint_class = 1

    def __init__(
        self,
        loop_id: int,
        task: "Function",
        liveins: list[Value],
        worker_id: int | None = None,
    ) -> None:
        super().__init__(VOID, list(liveins))
        self.loop_id = loop_id
        self.task = task
        self.worker_id = worker_id

    @property
    def liveins(self) -> list[Value]:
        return self.operands

    @property
    def has_side_effects(self) -> bool:
        return True

    def _clone_impl(self, operands, value_map):
        return ParallelFork(self.loop_id, self.task, operands, self.worker_id)


class ParallelJoin(CgpaPrimitive):
    """Stall until all workers of ``loop_id`` raise their finish signal."""

    opcode = "parallel_join"
    constraint_class = 1

    def __init__(self, loop_id: int) -> None:
        super().__init__(VOID, [])
        self.loop_id = loop_id

    @property
    def has_side_effects(self) -> bool:
        return True

    def _clone_impl(self, operands, value_map):
        return ParallelJoin(self.loop_id)


class StoreLiveout(CgpaPrimitive):
    """Latch a live-out value into the accelerator's live-out register."""

    opcode = "store_liveout"
    constraint_class = 3

    def __init__(self, liveout_id: int, value: Value) -> None:
        super().__init__(VOID, [value])
        self.liveout_id = liveout_id

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def has_side_effects(self) -> bool:
        return True

    def _clone_impl(self, operands, value_map):
        return StoreLiveout(self.liveout_id, operands[0])


class RetrieveLiveout(CgpaPrimitive):
    """Read a live-out register back in the parent function."""

    opcode = "retrieve_liveout"
    constraint_class = 3

    def __init__(self, liveout_id: int, type_: Type, name: str = "") -> None:
        super().__init__(type_, [], name)
        self.liveout_id = liveout_id

    @property
    def has_side_effects(self) -> bool:
        return True  # reads hardware register state

    def _clone_impl(self, operands, value_map):
        return RetrieveLiveout(self.liveout_id, self.type)


#: Python semantics for the integer binops, used by the interpreter and the
#: constant folder so they cannot disagree.
def _sdiv(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("sdiv by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _srem(a: int, b: int) -> int:
    return a - _sdiv(a, b) * b


INT_BINOP_FUNCS: dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "sdiv": _sdiv,
    "srem": _srem,
    "udiv": lambda a, b: a // b,
    "urem": lambda a, b: a % b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 63),
    "ashr": lambda a, b: a >> (b & 63),
    "lshr": lambda a, b: a >> (b & 63),  # operands are wrapped unsigned first
}

FLOAT_BINOP_FUNCS: dict[str, Callable[[float, float], float]] = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b,
}

ICMP_FUNCS: dict[str, Callable[[int, int], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
    "ult": lambda a, b: a < b,  # operands are wrapped unsigned first
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
}

FCMP_FUNCS: dict[str, Callable[[float, float], bool]] = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}
