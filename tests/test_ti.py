"""Tests for the Type Information table."""

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, X86
from repro.clang.ctypes import (
    ArrayType,
    CHAR,
    DOUBLE,
    INT,
    PointerType,
    StructType,
    TypeLayout,
)
from repro.msr.graphplan import CellRecord
from repro.msr.msrlt import BlockKind
from repro.msr.ti import TITable, TypeIdError, flat_prim_kind
from repro.msr.wire import RECORDS, TAG_BLOCK, lead_fault
from repro.vm.program import compile_program
from tests.conftest import FakeProgram


class TestFlatKind:
    @pytest.fixture
    def layout(self):
        return TypeLayout(SPARC20)

    def test_scalar_is_flat(self, layout):
        assert flat_prim_kind(DOUBLE, layout) == "double"
        assert flat_prim_kind(INT, layout) == "int"

    def test_prim_array_is_flat(self, layout):
        assert flat_prim_kind(ArrayType(DOUBLE, 1000), layout) == "double"

    def test_homogeneous_struct_is_flat(self, layout):
        s = StructType("two_ints", [("a", INT), ("b", INT)])
        assert flat_prim_kind(s, layout) == "int"

    def test_pointer_is_not_flat(self, layout):
        assert flat_prim_kind(PointerType(INT), layout) is None

    def test_mixed_struct_is_not_flat(self, layout):
        s = StructType("mix", [("a", INT), ("b", DOUBLE)])
        assert flat_prim_kind(s, layout) is None

    def test_padded_struct_is_not_flat(self, layout):
        s = StructType("padded", [("c", CHAR), ("i", INT)])
        assert flat_prim_kind(s, layout) is None

    def test_struct_with_pointer_not_flat(self, layout):
        s = StructType("withptr")
        s.define([("v", INT), ("p", PointerType(s))])
        assert flat_prim_kind(s, layout) is None

    def test_flatness_agrees_across_archs(self):
        """Flatness is a function of the type, the same on every arch,
        so no wire bit says it again: bit 4 of a ``BLOCK`` lead, once a
        FLAT flag, now says a heap serial follows and is refused on a
        global or stack record."""
        types = [
            DOUBLE,
            ArrayType(DOUBLE, 10),
            ArrayType(INT, 3),
            StructType("ff", [("a", INT), ("b", INT)]),
            StructType("fm", [("a", CHAR), ("b", DOUBLE)]),
            ArrayType(CHAR, 7),
        ]
        node = StructType("fnode")
        node.define([("v", INT), ("n", PointerType(node))])
        types.append(node)
        for t in types:
            flags = {
                arch.name: flat_prim_kind(t, TypeLayout(arch)) is not None
                for arch in (DEC5000, SPARC20, ALPHA, X86)
            }
            assert len(set(flags.values())) == 1, (t, flags)
        for kind in (BlockKind.GLOBAL, BlockKind.STACK):
            lead = TAG_BLOCK | kind << 2 | 0x10
            assert RECORDS[lead] is None
            assert lead_fault(lead) == (
                f"lead {lead:#04x} spells out a heap serial on a non-heap BLOCK"
            )
        # on a heap record the bit says the serial's i16 step follows
        lead = TAG_BLOCK | BlockKind.HEAP << 2 | 0x10
        assert lead_fault(lead) is None and RECORDS[lead].format == ">Bh"


class TestTypeInfo:
    def test_ordinal_byte_roundtrip(self):
        node = StructType("tnode")
        node.define([("v", INT), ("l", PointerType(node)), ("r", PointerType(node))])
        prog = FakeProgram([node])
        ti = TITable(prog, TypeLayout(SPARC20))
        info = ti.info(0)
        assert info.cell_count == 3
        for count in (1, 4):
            for ordinal in range(count * info.cell_count + 1):
                byte = info.ordinal_to_byte(ordinal, count)
                assert info.byte_to_ordinal(byte, count) == ordinal

    def test_ordinal_invariant_across_archs(self):
        """Same ordinal, different byte offsets — the portable encoding."""
        node = StructType("onode")
        node.define([("v", INT), ("n", PointerType(node))])
        prog = FakeProgram([node])
        ti32 = TITable(prog, TypeLayout(SPARC20)).info(0)
        ti64 = TITable(prog, TypeLayout(ALPHA)).info(0)
        assert ti32.cell_count == ti64.cell_count == 2
        assert ti32.ordinal_to_byte(1, 1) == 4
        assert ti64.ordinal_to_byte(1, 1) == 8

    def test_padding_offset_rejected(self):
        s = StructType("pnode", [("c", CHAR), ("d", DOUBLE)])
        prog = FakeProgram([s])
        info = TITable(prog, TypeLayout(SPARC20)).info(0)
        with pytest.raises(ValueError, match="padding"):
            info.byte_to_ordinal(3, 1)

    def test_has_pointers_flag(self):
        node = StructType("hnode")
        node.define([("v", INT), ("n", PointerType(node))])
        prog = FakeProgram([node, ArrayType(DOUBLE, 4)])
        ti = TITable(prog, TypeLayout(SPARC20))
        assert ti.info(0).has_pointers is True
        assert ti.info(1).has_pointers is False

    def test_info_cached(self):
        prog = FakeProgram([INT])
        ti = TITable(prog, TypeLayout(SPARC20))
        assert ti.info(0) is ti.info(0)


    def test_a_type_id_the_wire_cannot_name_is_refused(self):
        """A BLOCK record names its type in a u16: the 65 537th type of a
        program is refused where the table hands out its id, in so many
        words, not by ``struct.error`` in the middle of a collection."""
        prog = FakeProgram([INT, DOUBLE])
        prog.type_id = lambda ctype: 0xFFFF if ctype is INT else 0x10000
        prog.type_by_id = lambda type_id: INT if type_id == 0xFFFF else DOUBLE
        ti = TITable(prog, TypeLayout(SPARC20))
        assert ti.info_for(INT).type_id == 0xFFFF
        with pytest.raises(TypeIdError, match="65536 types"):
            ti.info_for(DOUBLE)

    def test_the_refusal_is_a_collect_error_and_the_source_runs_on(self, monkeypatch):
        from repro.migration.engine import CollectError, MigrationEngine
        from repro.vm.process import Process

        prog = compile_program(
            "double d; int main() { d = 1.5; migrate_here(); printf(\"%.1f\", d); return 0; }",
            poll_strategy="user",
        )
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        assert proc.run().status == "poll"
        monkeypatch.setattr(prog, "type_id", lambda ctype: 0x10000)
        proc.ti._by_identity.clear()
        with pytest.raises(CollectError, match="u16 type field"):
            MigrationEngine().migrate(proc, SPARC20)
        proc.migration_pending = False
        assert proc.run_to_completion() == 0
        assert proc.stdout == "1.5"


class TestReference:
    @pytest.mark.parametrize(
        "ctype",
        [DOUBLE, ArrayType(DOUBLE, 64), StructType("pair", [("a", INT), ("b", INT)]),
         StructType("gap", [("c", CHAR), ("d", DOUBLE)]),
         ArrayType(PointerType(INT), 4)],
        ids=["double", "double[64]", "flat struct", "padded struct", "int *[4]"],
    )
    def test_every_reference_converts_cell_by_cell(self, ctype):
        """The plans-off oracle has no bulk case: a flat block is
        ``Memory.load`` + ``xdr.encode`` per cell like any other, so the
        plans-on/off identity checks the cast of every pointer-free unit."""
        ti = TITable(FakeProgram([ctype]), TypeLayout(DEC5000))
        info = ti.info_for(ctype)
        ref = ti.reference_for(info)
        assert type(ref) is CellRecord and ref.info is info
        assert type(ti.plan_for(info)) is not CellRecord
