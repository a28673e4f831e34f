"""Unit and property tests for the byte-addressable memory model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InterpError
from repro.interp import HEAP_BASE, Memory, round_f32, to_unsigned, wrap_int
from repro.ir import BOOL, F32, F64, I8, I16, I32, I64, StructType, ptr


class TestAllocator:
    def test_null_page_reserved(self):
        mem = Memory()
        addr = mem.malloc(16)
        assert addr >= HEAP_BASE

    def test_allocations_do_not_overlap(self):
        mem = Memory()
        spans = []
        for size in (1, 7, 8, 64, 3):
            addr = mem.malloc(size)
            spans.append((addr, addr + size))
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_alignment(self):
        mem = Memory()
        for _ in range(5):
            assert mem.malloc(3, align=8) % 8 == 0

    def test_site_recorded(self):
        mem = Memory()
        mem.malloc(8, site=42)
        assert mem.allocations[-1].site == 42

    def test_allocation_spans_its_bytes(self):
        mem = Memory()
        addr = mem.malloc(16, site=7)
        (found,) = [a for a in mem.allocations if a.addr <= addr + 8 < a.end]
        assert found.site == 7
        assert not [a for a in mem.allocations if a.addr <= 4 < a.end]

    def test_negative_malloc_rejected(self):
        with pytest.raises(InterpError):
            Memory().malloc(-1)

    def test_growth(self):
        mem = Memory(size=4096)
        addr = mem.malloc(1 << 20)
        mem.store(addr + (1 << 20) - 4, I32, 5)
        assert mem.load(addr + (1 << 20) - 4, I32) == 5


class TestSizedToContents:
    """The buffer starts small and doubles on demand; nothing observable
    (addresses, break, contents, growth on a far access) depends on it."""

    def test_empty_memory_allocates_loads_stores_and_clones(self):
        mem = Memory(0)  # what clone() builds; malloc used to spin here
        addr = mem.malloc(8)
        assert addr == HEAP_BASE and mem.load(addr, I64) == 0
        mem.store(addr, I32, -7)
        assert Memory.loader(I32)(Memory(0), addr + 64) == 0
        copy = mem.clone()
        assert copy.load(addr, I32) == -7
        assert copy.snapshot() == mem.snapshot()
        assert copy.malloc(4) == mem.malloc(4)

    def test_default_image_is_kilobytes(self):
        assert len(Memory()._data) <= 1 << 16

    def test_large_malloc_from_the_small_default(self):
        mem, size = Memory(), 8 << 20
        first = mem.malloc(24, site=3)
        addr = mem.malloc(size, site=4)
        # The values a 16 MiB image gave: placement never read the capacity.
        assert (first, addr) == (HEAP_BASE, HEAP_BASE + 24)
        assert mem._brk == addr + size
        assert [(a.addr, a.size, a.site) for a in mem.allocations] == [
            (first, 24, 3), (addr, size, 4)]
        mem.store(addr + size - 8, F64, 2.5)
        snapshot = mem.snapshot()
        assert len(snapshot) == mem._brk
        assert snapshot[addr:addr + size - 8] == bytes(size - 8)
        assert mem.load(addr + size - 8, F64) == 2.5

    def test_access_past_the_end_still_grows(self):
        mem = Memory()
        far = 4 * len(mem._data) + 100
        assert mem.load(far, I32) == 0
        mem.store(2 * far, I32, 9)
        assert mem.load(2 * far, I32) == 9
        assert mem._brk == HEAP_BASE  # an access is not an allocation

    def test_image_key_covers_the_break_and_every_byte(self):
        mem = Memory()
        addr = mem.malloc(16)
        mem.store(addr, I32, 1)
        twin = mem.clone()
        assert twin.image_key() == mem.image_key()
        twin.malloc(1)
        assert twin.image_key() != mem.image_key()  # break moved
        twin = mem.clone()
        twin.write_bytes(len(mem._data) - 1, b"\x01")  # beyond the break
        assert twin.image_key() != mem.image_key()
        assert twin.snapshot() == mem.snapshot()


class TestTypedAccess:
    @pytest.mark.parametrize("type_,value", [
        (I8, -5), (I16, -1234), (I32, -100000), (I64, -(2**40)),
        (F32, 1.5), (F64, 3.141592653589793),
    ])
    def test_roundtrip(self, type_, value):
        mem = Memory()
        addr = mem.malloc(16)
        mem.store(addr, type_, value)
        assert mem.load(addr, type_) == value

    def test_pointer_roundtrip(self):
        mem = Memory()
        addr = mem.malloc(8)
        mem.store(addr, ptr(I32), 0xDEADBEEF)
        assert mem.load(addr, ptr(I32)) == 0xDEADBEEF

    def test_little_endian_layout(self):
        mem = Memory()
        addr = mem.malloc(4)
        mem.store(addr, I32, 0x01020304)
        assert mem.read_bytes(addr, 4) == bytes([4, 3, 2, 1])

    def test_null_access_rejected(self):
        mem = Memory()
        with pytest.raises(InterpError):
            mem.load(0, I32)

    def test_f32_store_rounds(self):
        mem = Memory()
        addr = mem.malloc(4)
        mem.store(addr, F32, 0.1)
        assert mem.load(addr, F32) == round_f32(0.1)

    def test_traffic_counters(self):
        mem = Memory()
        addr = mem.malloc(8)
        mem.store(addr, F64, 1.0)
        mem.load(addr, F64)
        assert mem.bytes_written >= 8
        assert mem.bytes_read >= 8


class TestBoundAccessors:
    """``Memory.loader``/``storer`` are ``load``/``store`` with the type pre-bound."""

    CASES = [
        (BOOL, 1), (BOOL, 3), (I8, -5), (I8, 200), (I16, -1234), (I32, -100000),
        (I32, 2**31 + 7), (I64, -(2**40)), (F32, 0.1), (F64, -2.5),
        (ptr(I32), 0xDEADBEEF), (ptr(I32), -1),
    ]

    @pytest.mark.parametrize("type_,value", CASES, ids=repr)
    def test_bit_identical_to_load_store(self, type_, value):
        plain, bound = Memory(), Memory()
        addr = plain.malloc(16)
        assert bound.malloc(16) == addr
        plain.store(addr, type_, value)
        assert Memory.storer(type_)(bound, addr, value) is None
        assert bound.snapshot() == plain.snapshot()
        assert Memory.loader(type_)(bound, addr) == plain.load(addr, type_)
        assert (bound.bytes_read, bound.bytes_written) == (
            plain.bytes_read, plain.bytes_written)

    def test_null_negative_and_growth_rules_kept(self):
        mem = Memory(size=1 << 13)
        load, store = Memory.loader(I32), Memory.storer(I32)
        for addr in (0, -4):
            with pytest.raises(InterpError, match="null/negative"):
                load(mem, addr)
            with pytest.raises(InterpError, match="null/negative"):
                store(mem, addr, 1)
        assert (mem.bytes_read, mem.bytes_written) == (0, 0)
        far = (1 << 13) + 100  # beyond the buffer: grows on demand
        store(mem, far, 77)
        assert load(mem, far) == 77 and len(mem._data) == 1 << 14
        with pytest.raises(InterpError, match="out of simulated memory"):
            load(mem, (1 << 31) - 2)

    def test_subclass_keeps_its_own_read_and_write(self):
        seen = []

        class Spy(Memory):
            def read_bytes(self, addr, size):
                seen.append(("r", addr, size))
                return super().read_bytes(addr, size)

            def write_bytes(self, addr, data):
                seen.append(("w", addr, len(data)))
                super().write_bytes(addr, data)

        mem = Spy()
        addr = mem.malloc(8)
        Spy.storer(F64)(mem, addr, 1.5)
        assert Spy.loader(F64)(mem, addr) == 1.5
        assert seen == [("w", addr, 8), ("r", addr, 8)]


class TestStructHelpers:
    def test_field_roundtrip(self):
        s = StructType("memnode", [("v", F64), ("n", I32)])
        mem = Memory()
        addr = mem.alloc_object(s)
        fields = {name: (addr + s.field_offset(i), s.field_type(i))
                  for name, i in (("v", 0), ("n", 1))}
        mem.store(*fields["v"], 2.5)
        mem.store(*fields["n"], 9)
        assert mem.load(*fields["v"]) == 2.5
        assert mem.load(*fields["n"]) == 9

    def test_array_roundtrip(self):
        mem = Memory()
        addr = mem.malloc(40)
        for i, value in enumerate([1.0, 2.0, 3.0]):
            mem.store(mem.elem_addr(addr, F64, i), F64, value)
        assert mem.load_array(addr, F64, 3) == [1.0, 2.0, 3.0]

    def test_clone_is_independent(self):
        mem = Memory()
        addr = mem.malloc(4, site=3)
        mem.store(addr, I32, 1)
        copy = mem.clone()
        copy.store(addr, I32, 2)
        assert mem.load(addr, I32) == 1
        assert copy.load(addr, I32) == 2
        assert copy.allocations[-1].site == 3

    def test_clone_is_bit_identical(self):
        mem = Memory(size=1 << 13)
        a = mem.malloc(24, site=1)
        mem.malloc(0, site=2)
        mem.store(a, F64, 2.5)
        mem.load(a, F64)
        copy = mem.clone()
        assert type(copy) is Memory
        assert copy._data == mem._data and copy._data is not mem._data
        assert copy._brk == mem._brk
        assert copy.allocations == mem.allocations
        assert all(x is not y for x, y in zip(copy.allocations, mem.allocations))
        assert (copy.bytes_read, copy.bytes_written) == (8, 8)
        assert copy.malloc(8) == mem.malloc(8)
        copy.store((1 << 13) + 64, I32, 9)  # a clone still grows on demand
        assert len(copy._data) == 1 << 14 and len(mem._data) == 1 << 13

    def test_snapshot_equality_detects_divergence(self):
        a = Memory()
        addr = a.malloc(16)
        a.store(addr, I32, 5)
        b = a.clone()
        assert a.snapshot() == b.snapshot()
        b.store(addr, I32, 6)
        assert a.snapshot() != b.snapshot()


class TestIntHelpers:
    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1),
           st.sampled_from([8, 16, 32, 64]))
    def test_wrap_int_range(self, value, bits):
        wrapped = wrap_int(value, bits)
        assert -(2 ** (bits - 1)) <= wrapped < 2 ** (bits - 1)

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_wrap_is_identity_in_range(self, value):
        assert wrap_int(value, 32) == value

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_unsigned_signed_roundtrip(self, value):
        assert wrap_int(to_unsigned(value, 32), 32) == value

    @given(st.integers(), st.integers())
    def test_wrap_add_homomorphism(self, a, b):
        # (a + b) wrapped == (wrap a + wrap b) wrapped — the property that
        # makes per-op wrapping in the interpreter sound.
        assert wrap_int(a + b, 32) == wrap_int(wrap_int(a, 32) + wrap_int(b, 32), 32)


class TestMemoryProperties:
    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(1, 64)), max_size=20))
    def test_disjoint_writes_preserved(self, writes):
        mem = Memory()
        cells = []
        for value, size in writes:
            addr = mem.malloc(size)
            mem.store(addr, I8, value)
            cells.append((addr, wrap_int(value, 8)))
        for addr, expected in cells:
            assert mem.load(addr, I8) == expected
