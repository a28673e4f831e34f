"""IR type system and data layout.

The target machine mirrors the paper's evaluation platform: a 32-bit
MIPS-style core beside the accelerators, so pointers and ``int`` are four
bytes and ``double`` is eight.  Types are interned where practical so they
can be compared with ``==`` (structural equality) cheaply.
"""

from __future__ import annotations

from ..errors import IRError

#: Alignment and size of a machine pointer on the 32-bit target.
POINTER_SIZE = 4


class Type:
    """Base class for all IR types."""

    def size(self) -> int:
        """Size of a value of this type in bytes."""
        raise IRError(f"type {self} has no size")

    def alignment(self) -> int:
        """Required alignment in bytes."""
        return self.size()

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)


class VoidType(Type):
    """The type of instructions that produce no value."""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")

    def __repr__(self) -> str:
        return "void"


class IntType(Type):
    """An integer of a fixed bit width (i1, i8, i32, i64)."""

    def __init__(self, bits: int) -> None:
        if bits not in (1, 8, 16, 32, 64):
            raise IRError(f"unsupported integer width: {bits}")
        self.bits = bits

    def size(self) -> int:
        return max(1, self.bits // 8)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("int", self.bits))

    def __repr__(self) -> str:
        return f"i{self.bits}"


class FloatType(Type):
    """An IEEE float: 32-bit (C float) or 64-bit (C double)."""

    def __init__(self, bits: int) -> None:
        if bits not in (32, 64):
            raise IRError(f"unsupported float width: {bits}")
        self.bits = bits

    def size(self) -> int:
        return self.bits // 8

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloatType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("float", self.bits))

    def __repr__(self) -> str:
        return "f32" if self.bits == 32 else "f64"


class PointerType(Type):
    """A pointer to a pointee type; four bytes on this target."""

    def __init__(self, pointee: Type) -> None:
        self.pointee = pointee

    def size(self) -> int:
        return POINTER_SIZE

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))

    def __repr__(self) -> str:
        return f"{self.pointee!r}*"


class ArrayType(Type):
    """A fixed-length array of a uniform element type."""

    def __init__(self, element: Type, count: int) -> None:
        if count < 0:
            raise IRError(f"negative array length: {count}")
        self.element = element
        self.count = count

    def size(self) -> int:
        return self.element.size() * self.count

    def alignment(self) -> int:
        return self.element.alignment()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.count == self.count
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.count))

    def __repr__(self) -> str:
        return f"[{self.count} x {self.element!r}]"


class StructType(Type):
    """A named struct with ordered fields and C-style layout.

    Structs are compared by name (nominal typing, like C); the layout is
    computed with natural alignment, matching what a 32-bit C compiler
    produces for the benchmark sources.
    """

    def __init__(self, name: str, fields: list[tuple[str, Type]] | None = None) -> None:
        self.name = name
        self.fields: list[tuple[str, Type]] = []
        self._offsets: list[int] = []
        self._size = 0
        self._align = 1
        self._sealed = False
        if fields is not None:
            self.set_fields(fields)

    def set_fields(self, fields: list[tuple[str, Type]]) -> None:
        """Define the body of a (possibly forward-declared) struct."""
        if self._sealed:
            raise IRError(f"struct {self.name} already defined")
        self.fields = list(fields)
        offset = 0
        align = 1
        self._offsets = []
        for _, ftype in self.fields:
            falign = ftype.alignment()
            offset = _align_up(offset, falign)
            self._offsets.append(offset)
            offset += ftype.size()
            align = max(align, falign)
        self._size = _align_up(offset, align) if self.fields else 0
        self._align = align
        self._sealed = True

    @property
    def is_opaque(self) -> bool:
        return not self._sealed

    def size(self) -> int:
        if not self._sealed:
            raise IRError(f"size of opaque struct {self.name}")
        return self._size

    def alignment(self) -> int:
        if not self._sealed:
            raise IRError(f"alignment of opaque struct {self.name}")
        return self._align

    def field_index(self, name: str) -> int:
        for i, (fname, _) in enumerate(self.fields):
            if fname == name:
                return i
        raise IRError(f"struct {self.name} has no field {name!r}")

    def field_type(self, index: int) -> Type:
        return self.fields[index][1]

    def field_offset(self, index: int) -> int:
        if not self._sealed:
            raise IRError(f"offset into opaque struct {self.name}")
        return self._offsets[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("struct", self.name))

    def __repr__(self) -> str:
        return f"%{self.name}"


class FunctionType(Type):
    """The type of a function: return type plus parameter types."""

    def __init__(self, return_type: Type, param_types: list[Type]) -> None:
        self.return_type = return_type
        self.param_types = list(param_types)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.return_type == self.return_type
            and other.param_types == self.param_types
        )

    def __hash__(self) -> int:
        return hash(("fn", self.return_type, tuple(self.param_types)))

    def __repr__(self) -> str:
        params = ", ".join(repr(t) for t in self.param_types)
        return f"{self.return_type!r} ({params})"


class LabelType(Type):
    """The type of basic blocks (branch targets)."""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabelType)

    def __hash__(self) -> int:
        return hash("label")

    def __repr__(self) -> str:
        return "label"


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


# Interned singletons for the common types.
VOID = VoidType()
BOOL = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)
LABEL = LabelType()


def ptr(pointee: Type) -> PointerType:
    """Shorthand for :class:`PointerType`."""
    return PointerType(pointee)
