"""Byte-addressable memory image for interpretation and simulation.

One :class:`Memory` instance is shared by the software interpreter, the
MIPS baseline cost model and the hardware accelerator simulator, so the
"accelerator output equals software output" verification compares like
with like.

Addresses are 32-bit (the paper's target).  A bump allocator serves
``malloc``; every allocation records its *site id* (the IR call site), the
runtime counterpart of the allocation-site abstraction the points-to
analysis uses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import InterpError
from ..ir.types import FloatType, IntType, PointerType, Type

#: Allocations start here so that address 0 stays an unmapped null page.
HEAP_BASE = 0x1000
#: Top of the 32-bit address space we allow.
ADDRESS_LIMIT = 1 << 31
#: Bytes a fresh image starts with.  The buffer doubles on demand, so an
#: image costs what it holds (the kernels' workloads are 6-30 KB): a
#: clone, an interned copy and a digest are kilobytes each.
DEFAULT_CAPACITY = 1 << 14


@dataclass
class Allocation:
    """One heap allocation: [addr, addr+size), tagged with its site."""

    addr: int
    size: int
    site: int

    @property
    def end(self) -> int:
        return self.addr + self.size


class Memory:
    """Flat little-endian memory with typed accessors and bounds checks."""

    def __init__(self, size: int = DEFAULT_CAPACITY) -> None:
        self._data = bytearray(size)
        self._brk = HEAP_BASE
        self.allocations: list[Allocation] = []
        #: Total bytes read/written, used by the energy model.
        self.bytes_read = 0
        self.bytes_written = 0

    # -- allocation ----------------------------------------------------------

    def malloc(self, size: int, site: int = -1, align: int = 8) -> int:
        """Bump-allocate ``size`` bytes; returns the address."""
        if size < 0:
            raise InterpError(f"malloc of negative size {size}")
        addr = (self._brk + align - 1) // align * align
        if addr + size > len(self._data):
            self._grow(addr + size)
        self._brk = addr + max(size, 1)
        self.allocations.append(Allocation(addr, size, site))
        return addr

    def alloc_object(self, type_: Type, site: int = -1) -> int:
        """Allocate one object of an IR type."""
        return self.malloc(type_.size(), site, align=max(type_.alignment(), 4))

    def _grow(self, needed: int) -> None:
        if needed > ADDRESS_LIMIT:
            raise InterpError("out of simulated memory")
        new_size = max(len(self._data), 1)  # Memory(0), as clone() builds
        while new_size < needed:
            new_size *= 2
        self._data.extend(bytes(new_size - len(self._data)))

    # -- raw access ----------------------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr <= 0:
            raise InterpError(f"access to null/negative address {addr:#x}")
        if addr + size > len(self._data):
            self._grow(addr + size)

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        self.bytes_read += size
        return bytes(self._data[addr : addr + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self.bytes_written += len(data)
        self._data[addr : addr + len(data)] = data

    # -- typed access ----------------------------------------------------------

    def load(self, addr: int, type_: Type) -> int | float:
        if isinstance(type_, IntType):
            size = type_.size()
            raw = int.from_bytes(self.read_bytes(addr, size), "little", signed=False)
            return _to_signed(raw, type_.bits) if type_.bits > 1 else raw & 1
        if isinstance(type_, FloatType):
            fmt = "<f" if type_.bits == 32 else "<d"
            return struct.unpack(fmt, self.read_bytes(addr, type_.size()))[0]
        if isinstance(type_, PointerType):
            return int.from_bytes(self.read_bytes(addr, 4), "little")
        raise InterpError(f"cannot load value of type {type_!r}")

    def store(self, addr: int, type_: Type, value: int | float) -> None:
        if isinstance(type_, IntType):
            size = type_.size()
            bits = max(type_.bits, 8)
            raw = int(value) & ((1 << bits) - 1)
            self.write_bytes(addr, raw.to_bytes(size, "little"))
            return
        if isinstance(type_, FloatType):
            fmt = "<f" if type_.bits == 32 else "<d"
            self.write_bytes(addr, struct.pack(fmt, float(value)))
            return
        if isinstance(type_, PointerType):
            self.write_bytes(addr, (int(value) & 0xFFFFFFFF).to_bytes(4, "little"))
            return
        raise InterpError(f"cannot store value of type {type_!r}")

    # -- pre-bound accessors (the interpreter's decoded loads/stores) ---------

    @classmethod
    def loader(cls, type_: Type):
        """``f(memory, addr)`` equal to ``memory.load(addr, type_)``.

        :class:`Memory` itself gets check, counter and decode inlined over
        a :mod:`struct` codec; a subclass (which may override
        ``read_bytes``/``write_bytes``) keeps its own ``load``/``store``.
        """
        codec = _codec(type_, signed=True)
        if cls is not Memory or codec is None:
            return lambda memory, addr: memory.load(addr, type_)
        size, unpack = codec.size, codec.unpack_from

        def load(memory, addr):
            data = memory._data
            if addr <= 0 or addr + size > len(data):
                memory._check(addr, size)
            memory.bytes_read += size
            return unpack(data, addr)[0]

        return load

    @classmethod
    def storer(cls, type_: Type):
        """``f(memory, addr, value)`` equal to ``memory.store(addr, type_, value)``."""
        codec = _codec(type_, signed=False)
        if cls is not Memory or codec is None:
            return lambda memory, addr, value: memory.store(addr, type_, value)
        size, pack = codec.size, codec.pack_into
        mask = (1 << 8 * size) - 1
        is_float = isinstance(type_, FloatType)

        def store(memory, addr, value):
            raw = float(value) if is_float else int(value) & mask
            data = memory._data
            if addr <= 0 or addr + size > len(data):
                memory._check(addr, size)
            memory.bytes_written += size
            pack(data, addr, raw)

        return store

    # -- inline forms (generated code's loads/stores) ---------------------------

    @classmethod
    def load_form(cls, type_: Type, addr: str, ref) -> tuple[list[str], str] | None:
        """:meth:`loader`'s body as text: the lines that check and count a
        load of ``type_`` at ``addr`` (an operand text) and the expression
        of the loaded value, over the locals ``memory``, ``data`` and
        ``top`` (:func:`buffer_line`); ``ref(obj)`` names the codec.  None where
        :meth:`loader` is not inlined either (a subclass, an ``i1``)."""
        codec = _codec(type_, signed=True)
        if cls is not Memory or codec is None:
            return None
        size = codec.size
        lines = [_reach(addr, size, ref), f"memory.bytes_read += {size}"]
        return lines, f"{ref(codec.unpack_from)}(data, {addr})[0]"

    @classmethod
    def store_form(cls, type_: Type, addr: str, value: str, ref) -> list[str] | None:
        """:meth:`storer`'s body as text, as :meth:`load_form` spells a load."""
        codec = _codec(type_, signed=False)
        if cls is not Memory or codec is None:
            return None
        size = codec.size
        if isinstance(type_, FloatType):
            raw = f"{ref(float)}({value})"
        else:
            raw = f"{ref(int)}({value}) & {(1 << 8 * size) - 1}"
        return [f"raw = {raw}", _reach(addr, size, ref),
                f"memory.bytes_written += {size}",
                f"{ref(codec.pack_into)}(data, {addr}, raw)"]

    # -- array helpers (used by examples and tests) --------------------------------

    def elem_addr(self, base: int, elem_type: Type, index: int) -> int:
        return base + elem_type.size() * index

    def load_array(self, base: int, elem_type: Type, count: int) -> list:
        return [
            self.load(self.elem_addr(base, elem_type, i), elem_type)
            for i in range(count)
        ]

    def snapshot(self) -> bytes:
        """Copy of the used portion of memory, for output comparison."""
        return bytes(self._data[: self._brk])

    def image_key(self) -> tuple[int, bytes]:
        """The allocator break and a sha256 of the whole buffer, the bytes
        beyond the break included: with the global addresses, everything
        a function interpreted over this image can read (what
        :func:`repro.harness.runner.interned_check` keys on)."""
        # Imported here: OpenSSL is 3.7 MiB of resident memory, which the
        # compile-only paths that import this module never need.
        import hashlib

        return self._brk, hashlib.sha256(self._data).digest()

    def clone(self) -> "Memory":
        """Deep copy sharing nothing, for running two backends on one image.

        Also carries the access counters, so a clone of an interned
        post-setup image (:mod:`repro.fleet`) is bit-identical to a
        freshly set-up one.
        """
        copy = Memory(0)
        copy._data = bytearray(self._data)  # one copy, no zero-fill first
        copy._brk = self._brk
        copy.allocations = [Allocation(a.addr, a.size, a.site) for a in self.allocations]
        copy.bytes_read = self.bytes_read
        copy.bytes_written = self.bytes_written
        return copy


def buffer_line(ref) -> str:
    """What generated code that inlines a plain image's accesses runs once,
    with ``memory`` bound to the image: ``data`` is the buffer the forms
    index and ``top`` a length it had.  The buffer only grows, in place,
    so the binding stays valid and a stale ``top`` costs one slow check."""
    return f"data = memory._data; top = {ref(len)}(data)"


def _reach(addr: str, size: int, ref) -> str:
    """The text of :meth:`Memory._check`'s fast path: null and growth
    checked only when the access is not below ``top``."""
    return (f"if {addr} <= 0 or {addr} + {size} > top: "
            f"memory._check({addr}, {size}); top = {ref(len)}(data)")


def _codec(type_: Type, signed: bool) -> struct.Struct | None:
    """Little-endian :mod:`struct` codec of a scalar type (None: no fast path)."""
    if isinstance(type_, FloatType):
        return struct.Struct("<f" if type_.bits == 32 else "<d")
    if isinstance(type_, PointerType):
        return struct.Struct("<I")
    if isinstance(type_, IntType) and not (signed and type_.bits == 1):
        # An i1 *load* keeps only bit 0, which no struct code does.
        code = {1: "b", 2: "h", 4: "i", 8: "q"}[type_.size()]
        return struct.Struct("<" + (code if signed else code.upper()))
    return None


def _to_signed(raw: int, bits: int) -> int:
    if raw >= 1 << (bits - 1):
        return raw - (1 << bits)
    return raw


def wrap_int(value: int, bits: int) -> int:
    """Wrap a Python int to a signed ``bits``-wide machine integer."""
    if bits == 1:
        return value & 1
    mask = (1 << bits) - 1
    return _to_signed(value & mask, bits)


def to_unsigned(value: int, bits: int) -> int:
    """Reinterpret a signed machine integer as unsigned."""

    return value & ((1 << bits) - 1)


def round_f32(value: float) -> float:
    """Round a Python float to IEEE single precision.

    Values beyond the f32 range overflow to infinity, exactly as the
    hardware's single-precision units would.
    """
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")
