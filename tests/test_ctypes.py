"""Tests for the C type system and per-architecture layout."""

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, X86, X86_64
from repro.clang.ctypes import (
    ArrayType,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LayoutError,
    LONG,
    PointerType,
    PrimType,
    SHORT,
    StructType,
    TypeLayout,
    VOID,
    type_key,
)
from tests.conftest import type_info


@pytest.fixture
def l32():
    return TypeLayout(SPARC20)


@pytest.fixture
def l64():
    return TypeLayout(ALPHA)


class TestSizes:
    def test_prim_sizes(self, l32, l64):
        assert l32.sizeof(INT) == 4
        assert l32.sizeof(LONG) == 4
        assert l64.sizeof(LONG) == 8
        assert l32.sizeof(PointerType(INT)) == 4
        assert l64.sizeof(PointerType(INT)) == 8

    def test_array_size(self, l32):
        assert l32.sizeof(ArrayType(DOUBLE, 10)) == 80
        assert l32.sizeof(ArrayType(ArrayType(INT, 3), 2)) == 24

    def test_struct_padding_32(self, l32):
        # struct { char c; double d; } — d aligned to 8
        s = StructType("s1", [("c", CHAR), ("d", DOUBLE)])
        assert l32.field_offset(s, "c") == 0
        assert l32.field_offset(s, "d") == 8
        assert l32.sizeof(s) == 16
        assert l32.alignof(s) == 8

    def test_struct_padding_x86_double_align4(self):
        lay = TypeLayout(X86)
        s = StructType("s2", [("c", CHAR), ("d", DOUBLE)])
        assert lay.field_offset(s, "d") == 4
        assert lay.sizeof(s) == 12

    def test_tail_padding(self, l32):
        # struct { double d; char c; } — padded to multiple of 8
        s = StructType("s3", [("d", DOUBLE), ("c", CHAR)])
        assert l32.sizeof(s) == 16

    def test_pointer_members_differ_across_word_size(self, l64):
        node = StructType("node64", [("data", FLOAT), ("link", None)])
        # rebuild properly: self-referential struct
        node2 = StructType("node64b")
        node2.define([("data", FLOAT), ("link", PointerType(node2))])
        assert l64.field_offset(node2, "link") == 8
        assert l64.sizeof(node2) == 16
        l32 = TypeLayout(SPARC20)
        assert l32.field_offset(node2, "link") == 4
        assert l32.sizeof(node2) == 8

    def test_incomplete_struct_by_value_fails(self, l32):
        s = StructType("inc")
        with pytest.raises(LayoutError):
            l32.sizeof(s)

    def test_void_has_no_size(self, l32):
        with pytest.raises(LayoutError):
            l32.sizeof(VOID)

    def test_struct_redefinition_rejected(self):
        s = StructType("dup", [("x", INT)])
        with pytest.raises(ValueError):
            s.define([("y", INT)])

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError):
            StructType("dupf", [("x", INT), ("x", INT)])


class TestCells:
    def test_scalar_cells(self, l32):
        cells = l32.cells(INT)
        assert len(cells) == 1
        assert cells[0].offset == 0 and cells[0].kind == "int"

    def test_struct_cells_in_declaration_order(self, l32):
        node = StructType("cn")
        node.define([("data", FLOAT), ("link", PointerType(node))])
        cells = l32.cells(node)
        assert [c.kind for c in cells] == ["float", "ptr"]
        assert [c.offset for c in cells] == [0, 4]

    def test_cell_sequence_arch_independent(self, l32, l64):
        s = StructType("seq")
        s.define([("a", CHAR), ("p", PointerType(s)), ("arr", ArrayType(SHORT, 3))])
        k32 = [c.kind for c in l32.cells(s)]
        k64 = [c.kind for c in l64.cells(s)]
        assert k32 == k64 == ["char", "ptr", "short", "short", "short"]
        assert type_info(s, l32).cells_in(1) == type_info(s, l64).cells_in(1) == 5

    def test_array_of_struct_cells(self, l32):
        s = StructType("aos", [("x", INT), ("y", CHAR)])
        arr = ArrayType(s, 2)
        cells = l32.cells(arr)
        # struct is padded to 8 bytes, so second element starts at 8
        assert [c.offset for c in cells] == [0, 4, 8, 12]

    def test_ordinal_offset_roundtrip(self, l32):
        s = StructType("ord", [("c", CHAR), ("d", DOUBLE), ("i", INT)])
        info = type_info(s, l32)
        for ordinal in range(info.cells_in(1)):
            off = info.ordinal_to_byte(ordinal, 1)
            assert info.byte_to_ordinal(off, 1) == ordinal

    def test_one_past_end_ordinal(self, l32):
        info = type_info(ArrayType(INT, 4), l32)
        assert info.byte_to_ordinal(16, 1) == 4
        assert info.ordinal_to_byte(4, 1) == 16

    def test_offset_into_padding_rejected(self, l32):
        s = StructType("pad", [("c", CHAR), ("d", DOUBLE)])
        with pytest.raises(ValueError, match="padding"):
            type_info(s, l32).byte_to_ordinal(3, 1)  # inside the padding hole

    def test_ordinal_differs_in_bytes_across_arch(self, l64):
        l32 = TypeLayout(DEC5000)
        s = StructType("xb")
        s.define([("p", PointerType(s)), ("v", INT)])
        # same ordinal, different byte offsets
        assert type_info(s, l32).ordinal_to_byte(1, 1) == 4
        assert type_info(s, l64).ordinal_to_byte(1, 1) == 8


class TestTypeKey:
    def test_structural_keys_equal(self):
        assert type_key(PointerType(INT)) == type_key(PointerType(PrimType("int")))
        assert type_key(ArrayType(INT, 3)) != type_key(ArrayType(INT, 4))

    def test_struct_key_by_tag(self):
        a = StructType("t", [("x", INT)])
        b = StructType("t")
        assert type_key(a) == type_key(b)

    def test_bad_prim_kind(self):
        with pytest.raises(ValueError):
            PrimType("ptr")
        with pytest.raises(ValueError):
            PrimType("bogus")
