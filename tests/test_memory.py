"""Tests for the segmented simulated memory."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import ALPHA, DEC5000, SPARC20
from repro.vm.memory import Memory, MemoryFault, host_kinds


@pytest.fixture
def mem():
    return Memory(SPARC20)


class TestScalarAccess:
    def test_roundtrip_every_kind(self, mem):
        addr = mem.heap_alloc(64)
        cases = [
            ("char", -7), ("uchar", 250), ("short", -1000), ("ushort", 50000),
            ("int", -123456), ("uint", 4000000000), ("long", -2**31),
            ("ulong", 2**32 - 1), ("llong", -2**62), ("ullong", 2**63),
            ("float", 2.5), ("double", 1.0 / 3.0), ("ptr", 0x1234_5678),
        ]
        for kind, value in cases:
            mem.store(kind, addr, value)
            assert mem.load(kind, addr) == value, kind

    def test_endianness_is_real(self):
        big = Memory(SPARC20)
        little = Memory(DEC5000)
        a1 = big.heap_alloc(8)
        a2 = little.heap_alloc(8)
        big.store("int", a1, 1)
        little.store("int", a2, 1)
        assert big.read_bytes(a1, 4) == b"\x00\x00\x00\x01"
        assert little.read_bytes(a2, 4) == b"\x01\x00\x00\x00"

    def test_store_wraps_to_width(self, mem):
        addr = mem.heap_alloc(8)
        mem.store("char", addr, 300)
        assert mem.load("char", addr) == 44
        mem.store("uchar", addr, -1)
        assert mem.load("uchar", addr) == 255

    def test_long_width_by_arch(self):
        m32 = Memory(SPARC20)
        m64 = Memory(ALPHA)
        a32 = m32.heap_alloc(8)
        a64 = m64.heap_alloc(8)
        m32.store("long", a32, -1)
        m64.store("long", a64, -1)
        assert m32.read_bytes(a32, 8) == b"\xff" * 4 + bytes(4)
        assert m64.read_bytes(a64, 8) == b"\xff" * 8

    def test_char_signedness_by_arch(self):
        signed = Memory(DEC5000)   # char_signed=True
        unsigned = Memory(ALPHA)   # char_signed=False
        a = signed.heap_alloc(1)
        b = unsigned.heap_alloc(1)
        signed.store("char", a, 0xFF)
        unsigned.store("char", b, 0xFF)
        assert signed.load("char", a) == -1
        assert unsigned.load("char", b) == 255

    def test_null_deref_faults(self, mem):
        with pytest.raises(MemoryFault, match="NULL"):
            mem.load("int", 0)

    def test_wild_address_faults(self, mem):
        with pytest.raises(MemoryFault, match="outside"):
            mem.store("int", 0xDEAD_BEEF_0000, 1)


class TestBulkAccess:
    def test_array_roundtrip(self, mem):
        addr = mem.heap_alloc(800)
        dtype = host_kinds(mem.arch).dtypes["double"]
        values = np.arange(100, dtype=">f8") * 1.5
        np.frombuffer(mem.write_view(addr, 800), dtype)[...] = values
        back = np.frombuffer(mem.view(addr, 800), dtype)
        np.testing.assert_array_equal(back, values.astype(back.dtype))

    def test_bulk_matches_scalar(self, mem):
        addr = mem.heap_alloc(40)
        for i in range(10):
            mem.store("int", addr + 4 * i, i * 7 - 3)
        arr = np.frombuffer(mem.view(addr, 40), host_kinds(mem.arch).dtypes["int"])
        assert list(arr) == [i * 7 - 3 for i in range(10)]

    def test_read_write_bytes(self, mem):
        addr = mem.heap_alloc(16)
        mem.write_bytes(addr, b"hello world!")
        assert mem.read_bytes(addr, 5) == b"hello"

    def test_zero(self, mem):
        addr = mem.heap_alloc(8)
        mem.store("llong", addr, -1)
        mem.zero(addr, 8)
        assert mem.load("llong", addr) == 0


class TestStack:
    def test_grows_down(self, mem):
        sp0 = mem.sp
        a = mem.stack_alloc(64)
        b = mem.stack_alloc(32)
        assert b < a < sp0
        mem.stack_restore(a)
        assert mem.sp == a

    def test_alignment(self, mem):
        a = mem.stack_alloc(13)
        assert a % 8 == 0

    def test_overflow_faults(self, mem):
        with pytest.raises(MemoryFault, match="overflow"):
            mem.stack_alloc(mem.stack_seg.limit - mem.stack_seg.base + 16)

    def test_window_stays_small(self, mem):
        # the stack lives at the top of a 128 MiB segment; allocating a
        # frame must not materialize the whole segment
        mem.stack_alloc(1024)
        assert len(mem.stack_seg.buf) < 1 << 21

    def test_deep_then_wide_window(self, mem):
        # spread accesses across a wide address range: windows extend
        top = mem.stack_alloc(64)
        mem.store("int", top, 42)
        low = mem.stack_alloc(1 << 20)
        mem.store("int", low, 7)
        assert mem.load("int", top) == 42
        assert mem.load("int", low) == 7


class TestHeap:
    def test_alloc_free_reuse(self, mem):
        a = mem.heap_alloc(24)
        mem.heap_free(a)
        b = mem.heap_alloc(24)
        assert b == a  # size-class reuse

    def test_distinct_allocations_disjoint(self, mem):
        blocks = [(mem.heap_alloc(n), n) for n in (8, 16, 24, 100, 8)]
        spans = sorted((a, a + max(n, 1)) for a, n in blocks)
        for (a1, e1), (a2, _e2) in zip(spans, spans[1:]):
            assert e1 <= a2

    def test_free_null_is_noop(self, mem):
        mem.heap_free(0)

    def test_double_free_faults(self, mem):
        a = mem.heap_alloc(8)
        mem.heap_free(a)
        with pytest.raises(MemoryFault):
            mem.heap_free(a)

    def test_free_of_wild_pointer_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.heap_free(mem.heap_seg.base + 4)

    def test_zero_size_malloc(self, mem):
        a = mem.heap_alloc(0)
        assert a != 0
        assert mem.heap_size_of(a) >= 1

    def test_alignment(self, mem):
        for n in (1, 3, 9, 17):
            assert mem.heap_alloc(n) % 8 == 0

    def test_alloc_materializes_its_span(self, mem):
        mem.heap_alloc(1000)
        assert len(mem.heap_seg.buf) >= 1000

    @given(st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=60))
    def test_alloc_pattern_property(self, sizes):
        mem = Memory(DEC5000)
        live = {}
        for i, n in enumerate(sizes):
            addr = mem.heap_alloc(n)
            # no overlap with any live allocation
            for a2, n2 in live.items():
                assert addr + n <= a2 or a2 + n2 <= addr
            live[addr] = n
            if i % 3 == 2:
                victim = next(iter(live))
                mem.heap_free(victim)
                del live[victim]


class TestSegments:
    def test_segment_names(self, mem):
        heap = mem.heap_alloc(8)
        stack = mem.stack_alloc(8)
        assert mem.segment_of(heap).name == "heap"
        assert mem.segment_of(stack).name == "stack"
        assert mem.segment_of(mem.global_seg.base).name == "global"

    def test_cross_segment_isolation(self):
        m = Memory(DEC5000)
        h = m.heap_alloc(8)
        s = m.stack_alloc(8)
        m.store("int", h, 111)
        m.store("int", s, 222)
        assert m.load("int", h) == 111
        assert m.load("int", s) == 222


class TestOneGrowthRule:
    """Every entry point grows a window through ``Segment.ensure``: a
    ``write_bytes`` and a ``write_view`` of the same span, on the same
    window, leave the same window behind."""

    @pytest.mark.parametrize("segment", ["global", "heap", "stack"])
    @pytest.mark.parametrize("prior", [None, "below", "above", "straddle"])
    def test_write_bytes_grows_as_write_view_does(self, segment, prior):
        windows = []
        for write in (
            lambda mem, at, n: mem.write_bytes(at, b"\x5a" * n),
            lambda mem, at, n: mem.write_view(at, n).__setitem__(slice(None), b"\x5a" * n),
        ):
            mem = Memory(SPARC20)
            seg = getattr(mem, f"{segment}_seg")
            mid = seg.base + (seg.limit - seg.base) // 2
            if prior is not None:
                mem.write_view(mid, 4096)[:] = bytes(range(256)) * 16
            at = {
                None: mid,
                "below": mid - 300_000,
                "above": mid + 300_000,
                "straddle": seg.window_start + len(seg.buf) - 8,
            }[prior]
            write(mem, at, 200)
            assert mem.read_bytes(at, 200) == b"\x5a" * 200
            windows.append((seg.window_start, len(seg.buf)))
        assert windows[0] == windows[1]
