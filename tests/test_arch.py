"""Tests for machine architecture specs and the XDR layer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import (
    ALPHA,
    ARCH_PRESETS,
    DEC5000,
    Endian,
    MachineArch,
    ReadBuffer,
    SPARC20,
    ULTRA5,
    WriteBuffer,
    X86,
    X86_64,
    xdr,
)
from repro.migration.engine import collect_state
from tests.conftest import stopped_at


class TestMachineArch:
    def test_presets_registered(self):
        assert set(ARCH_PRESETS) == {"dec5000", "sparc20", "ultra5", "alpha", "x86", "x86_64"}

    def test_paper_pair_is_truly_heterogeneous(self):
        # "It is truly heterogeneous because both systems use different
        # endianness" (§4.1)
        assert DEC5000.endian is Endian.LITTLE
        assert SPARC20.endian is Endian.BIG

    def test_fixed_sizes(self):
        for arch in ARCH_PRESETS.values():
            assert arch.sizeof("char") == 1
            assert arch.sizeof("short") == 2
            assert arch.sizeof("int") == 4
            assert arch.sizeof("double") == 8
            assert arch.sizeof("llong") == 8

    def test_lp64_vs_ilp32(self):
        assert DEC5000.sizeof("long") == 4
        assert DEC5000.sizeof("ptr") == 4
        assert ALPHA.sizeof("long") == 8
        assert ALPHA.sizeof("ptr") == 8
        assert X86_64.sizeof("ptr") == 8

    def test_alignment_capped_on_x86(self):
        assert X86.alignof("double") == 4
        assert SPARC20.alignof("double") == 8

    def test_signedness(self):
        assert DEC5000.is_signed("char") is True
        assert ALPHA.is_signed("char") is False
        assert ULTRA5.is_signed("uint") is False
        assert ULTRA5.is_signed("int") is True

    def test_segments_disjoint(self):
        for arch in ARCH_PRESETS.values():
            segs = sorted(arch.segments().values())
            for (b1, s1), (b2, _s2) in zip(segs, segs[1:]):
                assert b1 + s1 <= b2, f"{arch.name} segments overlap"

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            MachineArch(name="bad", endian=Endian.BIG, long_size=2)
        with pytest.raises(ValueError):
            MachineArch(name="bad", endian=Endian.BIG, max_align=3)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            DEC5000.sizeof("quux")


class TestXDR:
    def test_wire_sizes_arch_independent(self):
        assert xdr.wire_sizeof("long") == 8  # must hold LP64 longs
        assert xdr.wire_sizeof("int") == 4
        assert xdr.wire_sizeof("char") == 1

    def test_roundtrip_scalars(self):
        cases = [
            ("char", -5),
            ("uchar", 200),
            ("short", -30000),
            ("ushort", 60000),
            ("int", -(2**31)),
            ("uint", 2**32 - 1),
            ("long", -(2**63)),
            ("ulong", 2**64 - 1),
            ("float", 1.5),
            ("double", 3.141592653589793),
        ]
        for kind, value in cases:
            data = xdr.encode(kind, value)
            assert len(data) == xdr.wire_sizeof(kind)
            assert xdr.decode(kind, data) == value

    def test_big_endian_on_the_wire(self):
        assert xdr.encode("int", 1) == b"\x00\x00\x00\x01"
        assert xdr.encode("ushort", 0x1234) == b"\x12\x34"

    def test_encode_wraps_out_of_range(self):
        # encoding never raises; it wraps like C narrowing
        assert xdr.decode("char", xdr.encode("char", 257)) == 1
        assert xdr.decode("uchar", xdr.encode("uchar", -1)) == 255

    def test_bulk_roundtrip_matches_scalar(self):
        values = np.array([0.0, -1.25, 3.5e300, 1e-300], dtype="<f8")
        data = xdr.encode_array("double", values)
        scalar = b"".join(xdr.encode("double", float(v)) for v in values)
        assert data == scalar
        back = xdr.decode_array("double", data, len(values))
        np.testing.assert_array_equal(back, values)

    def test_bulk_int_narrowing(self):
        values = np.array([1, 2**31, -1], dtype="<i8")
        data = xdr.encode_array("int", values)
        back = xdr.decode_array("int", data, 3)
        assert list(back) == [1, -(2**31), -1]

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_int_roundtrip_property(self, value):
        assert xdr.decode("int", xdr.encode("int", value)) == value

    @given(st.floats(allow_nan=False, width=64))
    def test_double_roundtrip_property(self, value):
        assert xdr.decode("double", xdr.encode("double", value)) == value

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_ulong_roundtrip_property(self, value):
        assert xdr.decode("ulong", xdr.encode("ulong", value)) == value


class TestBuffers:
    def test_roundtrip_all_field_types(self):
        w = WriteBuffer()
        w.write_u8(7)
        w.write_u16(0x1234)
        w.write_u32(0xDEADBEEF)
        w.write(b"\x00\x06" + "héllo".encode())
        w.write(b"raw")
        r = ReadBuffer(w.getvalue())
        assert r.read_u8() == 7
        assert r.read_u16() == 0x1234
        assert r.read_u32() == 0xDEADBEEF
        assert bytes(r.read(8)) == b"\x00\x06h\xc3\xa9llo"
        assert bytes(r.read(3)) == b"raw"
        assert r.at_end()

    def test_underrun_raises(self):
        r = ReadBuffer(b"\x00")
        with pytest.raises(EOFError):
            r.read_u32()

    def test_peek_does_not_consume(self):
        r = ReadBuffer(b"\x09\x0a")
        assert r.peek_u8() == 9
        assert r.read_u8() == 9
        assert r.remaining == 1

    def test_tag_accounting(self):
        """What was written per record tag is the collector's count
        (``CollectStats``): the buffer holds bytes, not a census."""
        proc = stopped_at(
            "struct n { struct n *self; struct n *none; }; struct n *root;"
            "int main() { root = (struct n *) malloc(sizeof(struct n));"
            " root->self = root; root->none = NULL; migrate_here(); return 0; }",
            1, DEC5000,
        )
        _, info = collect_state(proc)
        # root, the node and the hidden PRNG cell; the self link; the
        # NULL (main has no live locals)
        stats = info.stats
        assert (stats.n_blocks, stats.n_refs, stats.n_nulls) == (3, 1, 1)

    def test_tag_accounting_off_by_default(self):
        """The buffer's whole accounting is one byte count."""
        w = WriteBuffer()
        w.write_u32(7)
        assert w.nbytes == 4
        assert not hasattr(w, "tag_counts")

    def test_nbytes_tracks_writes(self):
        w = WriteBuffer()
        assert w.nbytes == 0
        w.write_u32(0)
        assert w.nbytes == 4
        assert len(w) == 4
