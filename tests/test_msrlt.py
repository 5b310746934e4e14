"""Tests for the MSR Lookup Table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DEC5000, SPARC20
from repro.clang.ctypes import ArrayType, DOUBLE, INT, PointerType, StructType, TypeLayout
from repro.msr.msrlt import BlockKind, MemoryBlock, MSRLT, MSRLTError
from tests.conftest import register_stack, stopped_at, table_state


#: locals of several shapes in two frames: a struct with padding, an
#: array, scalars of three widths
LOCALS_PROGRAM = """
struct pt { char c; double d; };
int f(int n) {
    struct pt p; long a[3]; short s;
    p.c = 'x'; a[1] = n; s = 2;
    migrate_here();
    return n + s + p.c + a[1];
}
int main() {
    int x; double y;
    y = 1.5; x = f(2);
    return x;
}
"""


@pytest.fixture
def msrlt():
    return MSRLT(TypeLayout(SPARC20))


class TestRegistration:
    def test_global_block(self, msrlt):
        b = msrlt.register_global(0, 0x1000, INT, name="counter")
        assert b.logical == (BlockKind.GLOBAL, 0, 0)
        assert b.size == 4 and b.count == 1
        assert msrlt.lookup_logical((BlockKind.GLOBAL, 0, 0)) is b

    def test_stack_block(self, msrlt):
        """A frame's locals register in one merge, in any order: found by
        id and by address, and refused whole when one id is taken."""
        acc = MemoryBlock(0x7000, DOUBLE, 1, 8, (BlockKind.STACK, 2, 5), "acc")
        i = MemoryBlock(0x7010, INT, 1, 4, (BlockKind.STACK, 2, 6), "i")
        msrlt.register_stack_bulk([i, acc])
        assert msrlt.lookup_logical((BlockKind.STACK, 2, 5)) is acc
        assert msrlt.lookup_addr(0x7012) == (i, 2)
        other = MemoryBlock(0x7100, INT, 1, 4, (BlockKind.STACK, 3, 0))
        with pytest.raises(MSRLTError, match="duplicate"):
            msrlt.register_stack_bulk([other, acc])
        assert len(msrlt) == 2 and not msrlt.has_logical(other.logical)

    def test_a_process_registers_every_local_at_its_layout_size(self):
        """The sizes come from the function image, computed once at
        specialization; registering again replaces what a pass that
        failed left behind."""
        proc = stopped_at(LOCALS_PROGRAM, 1, DEC5000)
        n = proc.register_stack_blocks()
        assert n == sum(
            len(proc.program.functions[f.func_idx].norm.variables) for f in proc.frames
        )
        for depth, frame in enumerate(proc.frames):
            variables = proc.program.functions[frame.func_idx].norm.variables
            for var_idx, var in enumerate(variables):
                block = proc.msrlt.lookup_logical((BlockKind.STACK, depth, var_idx))
                assert block.addr == frame.base + frame.image.var_offsets[var_idx]
                assert block.size == proc.layout.sizeof(var.ctype)
        assert proc.register_stack_blocks() == n
        proc.msrlt.drop_stack_blocks()
        assert not proc.msrlt.has_logical((BlockKind.STACK, 0, 0))

    def test_heap_serials_increment(self, msrlt):
        b1 = msrlt.register_heap(0x2000, INT, 10)
        b2 = msrlt.register_heap(0x3000, INT, 1)
        assert b1.logical == (BlockKind.HEAP, 0, 0)
        assert b2.logical == (BlockKind.HEAP, 1, 0)
        assert b1.size == 40

    def test_heap_serial_passthrough(self, msrlt):
        b = MemoryBlock(0x2000, INT, 1, 4, (BlockKind.HEAP, 17, 0))
        msrlt.register_heap_bulk([b])
        assert msrlt.lookup_logical((BlockKind.HEAP, 17, 0)) is b
        # local serials continue above the imported one
        b2 = msrlt.register_heap(0x3000, INT, 1)
        assert b2.logical[1] == 18

    def test_duplicate_logical_rejected(self, msrlt):
        msrlt.register_global(0, 0x1000, INT)
        with pytest.raises(MSRLTError, match="duplicate"):
            msrlt.register_global(0, 0x2000, INT)

    def test_caller_supplied_size_skips_the_sizeof_walk(self, msrlt, monkeypatch):
        """The restorer holds ``sizeof(elem) * count`` in the block's
        TypeInfo and builds its blocks with it; registering them must
        not derive it a second time (a structural walk of the type,
        once per block)."""
        walked = msrlt.register_heap(0x5000, INT, 3)
        monkeypatch.setattr(
            msrlt.layout, "sizeof", lambda ctype: pytest.fail("sizeof walked again")
        )
        given = MemoryBlock(0x6000, INT, 3, walked.size, (BlockKind.HEAP, 9, 0))
        msrlt.register_heap_bulk([given])
        assert msrlt.lookup_addr(0x6000 + 11) == (given, 11)

    def test_unregister(self, msrlt):
        b = msrlt.register_heap(0x2000, INT, 4)
        msrlt.unregister(0x2000)
        assert not msrlt.has_logical(b.logical)
        with pytest.raises(MSRLTError):
            msrlt.lookup_addr(0x2000)

    def test_unregister_unknown_faults(self, msrlt):
        with pytest.raises(MSRLTError):
            msrlt.unregister(0x9999)

    def test_drop_stack_blocks(self, msrlt):
        msrlt.register_global(0, 0x1000, INT)
        register_stack(msrlt, 0, 0, 0x7000, INT)
        msrlt.register_heap(0x2000, INT, 1)
        msrlt.drop_stack_blocks()
        kinds = {b.logical[0] for b in msrlt.blocks()}
        assert BlockKind.STACK not in kinds
        assert len(msrlt) == 2


class TestAddressSearch:
    def test_exact_and_interior(self, msrlt):
        b = msrlt.register_heap(0x2000, INT, 10)  # 40 bytes
        blk, off = msrlt.lookup_addr(0x2000)
        assert blk is b and off == 0
        blk, off = msrlt.lookup_addr(0x2000 + 12)
        assert blk is b and off == 12

    def test_one_past_end(self, msrlt):
        b = msrlt.register_heap(0x2000, INT, 10)
        blk, off = msrlt.lookup_addr(0x2028)  # == end
        assert blk is b and off == 40

    def test_adjacent_blocks_prefer_start(self, msrlt):
        msrlt.register_heap(0x2000, INT, 10)   # [0x2000, 0x2028)
        b2 = msrlt.register_heap(0x2028, INT, 1)
        blk, off = msrlt.lookup_addr(0x2028)
        assert blk is b2 and off == 0

    def test_miss_raises(self, msrlt):
        msrlt.register_heap(0x2000, INT, 1)
        with pytest.raises(MSRLTError):
            msrlt.lookup_addr(0x1FFF)
        with pytest.raises(MSRLTError):
            msrlt.lookup_addr(0x2100)

    def test_out_of_order_registration(self, msrlt):
        # free-list reuse can hand back lower addresses; insort must cope
        b_hi = msrlt.register_heap(0x9000, INT, 1)
        b_lo = msrlt.register_heap(0x2000, INT, 1)
        b_mid = msrlt.register_heap(0x5000, INT, 1)
        assert msrlt.lookup_addr(0x2002)[0] is b_lo
        assert msrlt.lookup_addr(0x5000)[0] is b_mid
        assert msrlt.lookup_addr(0x9001)[0] is b_hi

    def test_search_counter(self, msrlt):
        msrlt.register_heap(0x2000, INT, 1)
        before = msrlt.n_searches
        msrlt.lookup_addr(0x2000)
        msrlt.lookup_addr(0x2000)
        assert msrlt.n_searches == before + 2

    def test_total_bytes(self, msrlt):
        msrlt.register_heap(0x2000, DOUBLE, 100)
        msrlt.register_heap(0x3000, INT, 10)
        assert msrlt.total_bytes() == 840

    @given(st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=60))
    def test_search_property(self, starts):
        """Every interior address maps back to its own block."""
        msrlt = MSRLT(TypeLayout(DEC5000))
        # non-overlapping 8-byte blocks at 16-byte strides
        blocks = {}
        for i, s in enumerate(sorted(starts)):
            addr = 0x1_0000 + s * 16
            blocks[addr] = msrlt.register_heap(addr, INT, 2)
        for addr, block in blocks.items():
            for off in (0, 4):
                found, o = msrlt.lookup_addr(addr + off)
                assert found is block and o == off


class TestLastHitCache:
    """A lookup sees the table as it is now, whatever an earlier lookup
    of the same address saw."""

    def test_one_past_end_without_neighbor_still_resolves(self, msrlt):
        b = msrlt.register_heap(0x2000, INT, 10)
        assert msrlt.lookup_addr(0x2000)[0] is b
        blk, off = msrlt.lookup_addr(0x2028)  # == end
        assert blk is b and off == 40

    @pytest.mark.parametrize("victim", [0x2000, 0x3000, 0x4000])
    def test_unregister_first_middle_last(self, msrlt, victim):
        addrs = [0x2000, 0x3000, 0x4000]
        blocks = {a: msrlt.register_heap(a, INT, 4) for a in addrs}
        msrlt.unregister(victim)
        with pytest.raises(MSRLTError):
            msrlt.lookup_addr(victim)
        for a in addrs:
            if a != victim:
                assert msrlt.lookup_addr(a + 4)[0] is blocks[a]

    def test_freed_then_reallocated_address_gets_new_block(self, msrlt):
        msrlt.register_heap(0x2000, INT, 4)
        msrlt.lookup_addr(0x2008)
        msrlt.unregister(0x2000)
        fresh = msrlt.register_heap(0x2000, DOUBLE, 2)
        blk, off = msrlt.lookup_addr(0x2008)
        assert blk is fresh and off == 8

    def test_drop_stack_blocks_invalidates_cache(self, msrlt):
        register_stack(msrlt, 0, 0, 0x7000, INT)
        msrlt.lookup_addr(0x7000)
        msrlt.drop_stack_blocks()
        with pytest.raises(MSRLTError):
            msrlt.lookup_addr(0x7000)

    def test_realloc_in_place_reshapes_block(self, msrlt):
        """realloc's in-place path: unregister + re-register at the SAME
        address with a new element count; a lookup must resolve the new
        block, not replay the old shape."""
        msrlt.register_heap(0x3000, INT, 8)
        msrlt.lookup_addr(0x3010)
        msrlt.unregister(0x3000)
        grown = msrlt.register_heap(0x3000, INT, 2)
        blk, off = msrlt.lookup_addr(0x3004)
        assert blk is grown and off == 4 and blk.count == 2
        # the shrunk block no longer covers the address looked up before
        with pytest.raises(MSRLTError):
            msrlt.lookup_addr(0x3010)

    def test_logical_lookup_accepts_lists(self, msrlt):
        b = msrlt.register_heap(0x2000, INT, 1)
        assert msrlt.lookup_logical(list(b.logical)) is b
        assert msrlt.has_logical(list(b.logical))

    @given(
        st.lists(
            st.tuples(st.integers(0, 59), st.integers(0, 2)),
            min_size=1,
            max_size=80,
        )
    )
    def test_cached_lookups_match_uncached(self, ops):
        """Any interleaving of registrations, lookups and frees resolves
        exactly as a dict of the live blocks would."""
        msrlt = MSRLT(TypeLayout(DEC5000))
        live = {}
        for slot, action in ops:
            addr = 0x1_0000 + slot * 16
            if action == 0 and slot not in live:
                live[slot] = msrlt.register_heap(addr, INT, 2)
            elif action == 1 and slot in live:
                msrlt.unregister(addr)
                del live[slot]
            else:
                for probe_slot, block in live.items():
                    paddr = 0x1_0000 + probe_slot * 16
                    found, off = msrlt.lookup_addr(paddr + 4)
                    assert found is block and off == 4
                if slot not in live:
                    with pytest.raises(MSRLTError):
                        msrlt.lookup_addr(addr + 4)


class TestBulkRegistration:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_shuffled_partition_equals_single_registrations(self, data):
        """However N blocks are shuffled and cut into bulk registrations,
        the table ends up as after N single insorts — around blocks the
        table already holds: below, between and above."""
        n = data.draw(st.integers(1, 24))
        addrs = data.draw(
            st.lists(st.integers(0x100, 0x400).map(lambda a: a * 8),
                     min_size=n, max_size=n, unique=True)
        )
        resident = data.draw(st.lists(st.sampled_from(addrs), unique=True, max_size=n // 2))
        order = data.draw(st.permutations([a for a in addrs if a not in resident]))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(order)), max_size=4)))
        singles, bulk = MSRLT(TypeLayout(SPARC20)), MSRLT(TypeLayout(SPARC20))
        for table in (singles, bulk):
            register_stack(table, 0, 0, 0x7000, INT, name="s")
            for a in resident:
                table.register_heap(a, INT, 1)
        serial = {a: 100 + 3 * i for i, a in enumerate(order)}

        def block(a):
            return MemoryBlock(a, INT, 2, 8, (BlockKind.HEAP, serial[a], 0))

        for a in order:
            singles._insert(block(a))
        for lo, hi in zip([0, *cuts], [*cuts, len(order)]):
            bulk.register_heap_bulk([block(a) for a in order[lo:hi]])
        # _insert leaves the serial counter to its callers
        singles._heap_serial = max([singles._heap_serial, *(s + 1 for s in serial.values())])
        assert table_state(bulk) == table_state(singles)


class TestDropStackBlocks:
    """The stack blocks are tracked as they register; dropping them is a
    slice when they are one run of the sorted arrays — above everything
    else, or below it (alpha's layout) — and a rebuild when they are
    not: the same table either way."""

    @pytest.mark.parametrize(
        "stack_addrs",
        [(0x7000, 0x7010, 0x6ff0), (0x1800, 0x7000), (0x0800,)],
        ids=["tail", "interleaved", "below"],
    )
    def test_equals_a_table_that_never_had_them(self, stack_addrs):
        table, plain = MSRLT(TypeLayout(SPARC20)), MSRLT(TypeLayout(SPARC20))
        for t in (table, plain):
            t.register_global(0, 0x1000, INT)
            t.register_heap(0x2000, INT, 4)
        for i, addr in enumerate(stack_addrs):
            register_stack(table, 0, i, addr, INT)
        for t in (table, plain):
            t.register_heap(0x2010, INT, 1)
        table.drop_stack_blocks()
        assert table_state(table)[:4] == table_state(plain)[:4]
        assert table._stack == []
        # and again: the next collection registers and drops afresh
        register_stack(table, 0, 0, 0x7000, INT)
        table.drop_stack_blocks()
        assert table_state(table)[:4] == table_state(plain)[:4]

    def test_an_unregistered_stack_block_is_forgotten(self, msrlt):
        msrlt.register_heap(0x2000, INT, 1)
        register_stack(msrlt, 0, 0, 0x7000, INT)
        register_stack(msrlt, 0, 1, 0x7008, INT)
        msrlt.unregister(0x7000)
        above = msrlt.register_heap(0x7800, INT, 1)  # not the stack's tail any more
        msrlt.drop_stack_blocks()
        assert msrlt._starts == [0x2000, 0x7800] and msrlt._blocks[1] is above
        assert set(msrlt._by_logical) == {(BlockKind.HEAP, 0, 0), (BlockKind.HEAP, 1, 0)}

    @staticmethod
    def drop_without_a_scan(msrlt, base):
        class NoScan(list):
            def __iter__(self):
                pytest.fail("drop_stack_blocks walked every block")

        for i in range(50):
            msrlt.register_heap(0x2000 + 16 * i, INT, 1)
        register_stack(msrlt, 0, 0, base, INT)
        register_stack(msrlt, 1, 0, base - 0x10, INT)
        msrlt._blocks = NoScan(msrlt._blocks)
        msrlt.drop_stack_blocks()
        assert len(msrlt) == 50 and not msrlt.has_logical((BlockKind.STACK, 0, 0))

    def test_does_not_scan_the_heap(self, msrlt):
        """Twice per migration, at any heap size: O(stack), not O(heap)."""
        self.drop_without_a_scan(msrlt, 0x7000)

    def test_does_not_scan_the_heap_above_the_stack(self, msrlt):
        """Nor where the stack sits under the heap, as on alpha."""
        self.drop_without_a_scan(msrlt, 0x1000)


class TestLogicalIdsAcrossArchs:
    def test_same_ids_different_sizes(self):
        """Logical ids are machine-independent even when sizes differ."""
        from repro.arch import ALPHA

        node = StructType("xnode")
        node.define([("v", INT), ("next", PointerType(node))])

        lt32 = MSRLT(TypeLayout(SPARC20))
        lt64 = MSRLT(TypeLayout(ALPHA))
        b32 = lt32.register_heap(0x1000, node, 1)
        b64 = lt64.register_heap(0x8000, node, 1)
        assert b32.logical == b64.logical
        assert b32.size == 8 and b64.size == 16
