"""Tests for Module bookkeeping, IRBuilder conveniences, and addr helpers."""

import pytest

from repro.errors import IRError
from repro.analysis.addr import gep_constant_offset, strip_casts, strip_constant_offsets
from repro.ir import (
    BOOL,
    Cast,
    Constant,
    F32,
    F64,
    FunctionType,
    GEP,
    I8,
    I32,
    I64,
    IRBuilder,
    Module,
    StructType,
    VOID,
    ptr,
)


class TestModule:
    def test_duplicate_function_rejected(self):
        m = Module("m")
        m.new_function("f", FunctionType(VOID, []), [])
        with pytest.raises(IRError, match="duplicate"):
            m.new_function("f", FunctionType(VOID, []), [])

    def test_missing_function_lookup(self):
        with pytest.raises(IRError, match="no function"):
            Module("m").get_function("ghost")

    def test_duplicate_global_rejected(self):
        m = Module("m")
        m.add_global(I32, "g")
        with pytest.raises(IRError, match="duplicate"):
            m.add_global(I32, "g")

    def test_struct_registry_interns_by_name(self):
        m = Module("m")
        a = m.get_struct("node")
        b = m.get_struct("node")
        assert a is b

    def test_global_is_pointer_valued(self):
        m = Module("m")
        g = m.add_global(F64, "coef", [2.5])
        assert g.type == ptr(F64)
        assert g.value_type == F64


class TestBuilder:
    def _fn(self, params=(I32,)):
        m = Module("m")
        f = m.new_function("f", FunctionType(I32, list(params)),
                           [f"a{i}" for i in range(len(params))])
        b = IRBuilder(f.new_block("entry"))
        return m, f, b

    def test_int_cast_widening_and_narrowing(self):
        m, f, b = self._fn((I8,))
        wide = b.int_cast(f.args[0], I64)
        assert wide.type == I64 and wide.opcode == "sext"
        narrow = b.int_cast(wide, I8)
        assert narrow.type == I8 and narrow.opcode == "trunc"

    def test_int_cast_identity_returns_same_value(self):
        m, f, b = self._fn((I32,))
        assert b.int_cast(f.args[0], I32) is f.args[0]

    def test_bool_zext_not_sext(self):
        m, f, b = self._fn((I32,))
        cond = b.icmp("sgt", f.args[0], b.const_int(0))
        widened = b.int_cast(cond, I32)
        assert widened.opcode == "zext"  # i1 true must become 1, not -1

    def test_builder_requires_block(self):
        b = IRBuilder(None)
        with pytest.raises(IRError, match="no insertion block"):
            b.add(IRBuilder.const_int(1), IRBuilder.const_int(2))

    def test_append_to_terminated_block_rejected(self):
        m, f, b = self._fn()
        b.ret(f.args[0])
        with pytest.raises(IRError, match="terminated"):
            b.add(f.args[0], b.const_int(1))


class TestAddrHelpers:
    def test_strip_casts_walks_bitcasts(self):
        m, f, b = (Module("m"), None, None)
        fn = m.new_function("f", FunctionType(VOID, [ptr(I32)]), ["p"])
        bld = IRBuilder(fn.new_block("entry"))
        cast1 = bld.cast("bitcast", fn.args[0], ptr(I8))
        cast2 = bld.cast("bitcast", cast1, ptr(F32))
        assert strip_casts(cast2) is fn.args[0]

    def test_constant_gep_offsets_accumulate(self):
        s = StructType("aoff", [("a", I32), ("b", F64), ("c", I32)])
        m = Module("m")
        fn = m.new_function("f", FunctionType(VOID, [ptr(s)]), ["p"])
        bld = IRBuilder(fn.new_block("entry"))
        g1 = bld.gep(fn.args[0], [bld.const_int(2)])            # +2*24
        g2 = bld.struct_gep(g1, 2)                               # +16
        root, offset = strip_constant_offsets(g2)
        assert root is fn.args[0]
        assert offset == 2 * 24 + 16

    def test_variable_index_yields_unknown_offset(self):
        m = Module("m")
        fn = m.new_function("f", FunctionType(VOID, [ptr(F64), I32]), ["p", "i"])
        bld = IRBuilder(fn.new_block("entry"))
        g = bld.gep(fn.args[0], [fn.args[1]])
        root, offset = strip_constant_offsets(g)
        assert root is fn.args[0]
        assert offset is None
        assert gep_constant_offset(g) is None
