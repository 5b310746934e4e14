"""The MSR Lookup Table (MSRLT).

The paper §3.1: "At runtime, the MSRLT data structure is created in
process memory space to keep track of memory blocks.  It also provides
machine-independent identification to the memory blocks and supports
memory block search during data collection and restoration operations.
The MSRLT works as a mapping table which supports address translation
between the machine-specific and machine-independent memory address."

A *memory block* is one MSR vertex: a global variable, a local variable
of some activation record, or one heap allocation.  Its machine-
independent :class:`LogicalId` is

- ``(GLOBAL, index, 0)`` — the global's declaration index,
- ``(STACK, frame_depth, var_index)`` — position in the call chain and
  the variable's slot in the function's flat variable list,
- ``(HEAP, serial, 0)`` — the allocation serial number on the *source*
  host (the restorer maps source serials to fresh destination blocks).

All three are identical on every architecture for the same program at
the same execution point, which is what makes them transportable.

Address→block search uses one sorted-address array with binary search —
O(log n) per pointer lookup, giving the paper's O(n·log n) total search
complexity for collection (§4.2).  A single registration (``malloc``)
is an insort into that array: an append only while nothing is
registered above it, and the stack blocks of a collection or
restoration sit above the whole heap.  Nothing else registers one block
at a time: the stack blocks of every frame go in with
:meth:`MSRLT.register_stack_bulk`, and a restoration pass hands each
walk's heap blocks to :meth:`MSRLT.register_heap_bulk` — one sorted
merge each — and translates through its own logical-id dict meanwhile:
the O(n) total MSRLT *update* complexity of restoration (§4.2).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

from repro.clang.ctypes import CType, TypeLayout

__all__ = ["BlockKind", "LogicalId", "MemoryBlock", "MSRLT", "MSRLTError"]


class MSRLTError(Exception):
    """Lookup failure — e.g. a pointer into unregistered memory."""


class BlockKind:
    """Logical-id kind codes (stable wire values)."""

    GLOBAL = 0
    STACK = 1
    HEAP = 2

    NAMES = {0: "global", 1: "stack", 2: "heap"}


#: (kind, a, b) — see module docstring
LogicalId = tuple


@dataclass(slots=True)
class MemoryBlock:
    """One MSR vertex: a typed, contiguous run of simulated memory."""

    addr: int
    elem_type: CType
    count: int
    size: int  # bytes on this architecture
    logical: LogicalId
    #: source-level name, for diagnostics and the MSR graph model
    name: str = ""

    @property
    def end(self) -> int:
        return self.addr + self.size

    def __str__(self) -> str:
        kind = BlockKind.NAMES[self.logical[0]]
        label = self.name or f"{kind}{self.logical[1:]}"
        return f"<block {label} @{self.addr:#x} {self.elem_type} x{self.count}>"


_ADDR = attrgetter("addr")


class MSRLT:
    """Registry of memory blocks for one process on one architecture."""

    def __init__(self, layout: TypeLayout) -> None:
        self.layout = layout
        self._by_logical: dict[LogicalId, MemoryBlock] = {}
        # sorted parallel arrays for address search
        self._starts: list[int] = []
        self._blocks: list[MemoryBlock] = []
        #: the stack-kind blocks, so that dropping them need not scan the heap
        self._stack: list[MemoryBlock] = []
        self._heap_serial = 0
        #: counters reported by the complexity benchmarks (E5)
        self.n_searches = 0
        self.n_cache_hits = 0  # never incremented: benchmarks/suite/layers.py reads it
        self.n_registrations = 0
        #: pre-copy registration journal: while a list is installed here
        #: (for the length of one execution slice, like ``Memory.dirty``),
        #: every block ``malloc`` / ``free`` / ``realloc`` registers or
        #: unregisters is appended to it, so a delta round learns which
        #: blocks were born and which freed from what changed, not from a
        #: diff of the whole table.  None (the default) logs nothing.
        self.journal: Optional[list[MemoryBlock]] = None

    def __len__(self) -> int:
        return len(self._blocks)

    # -- registration -------------------------------------------------------------

    def _insert(self, block: MemoryBlock) -> MemoryBlock:
        if block.logical in self._by_logical:
            raise MSRLTError(f"duplicate registration of {block.logical}")
        self._by_logical[block.logical] = block
        if self._starts and block.addr > self._starts[-1]:
            self._starts.append(block.addr)  # common fast path (bump allocator)
            self._blocks.append(block)
        else:
            i = bisect_right(self._starts, block.addr)
            self._starts.insert(i, block.addr)
            self._blocks.insert(i, block)
        self.n_registrations += 1
        if self.journal is not None:
            self.journal.append(block)
        return block

    def register_global(
        self, index: int, addr: int, ctype: CType, name: str = ""
    ) -> MemoryBlock:
        """Register one global variable (done at process load)."""
        size = self.layout.sizeof(ctype)
        return self._insert(
            MemoryBlock(
                addr=addr,
                elem_type=ctype,
                count=1,
                size=size,
                logical=(BlockKind.GLOBAL, index, 0),
                name=name,
            )
        )

    def register_heap(
        self, addr: int, elem_type: CType, count: int, size: Optional[int] = None
    ) -> MemoryBlock:
        """Register one heap allocation (done inside ``malloc``) under
        the next local serial.  *size* is ``count`` elements' bytes on
        this architecture, computed here when the caller has not."""
        serial = self._heap_serial
        self._heap_serial += 1
        if size is None:
            size = self.layout.sizeof(elem_type) * count
        return self._insert(
            MemoryBlock(addr, elem_type, count, size, (BlockKind.HEAP, serial, 0))
        )

    def register_heap_bulk(self, blocks: Sequence[MemoryBlock]) -> None:
        """Register prebuilt heap blocks — what one restoration walk
        carved — in one merge into the sorted arrays.

        The blocks carry the *source* host's serials (logical ids keep
        matching if the restored process migrates again) and may come in
        any address order; the table ends up exactly as after one
        :meth:`register_heap`-style insort per block.  Nothing is
        registered when any logical id is already taken.
        """
        if blocks:
            fresh = self._merge(blocks)
            self._heap_serial = max(self._heap_serial, max(fresh)[1] + 1)

    def register_stack_bulk(self, blocks: Sequence[MemoryBlock]) -> None:
        """Register the stack blocks of a collection or restoration —
        every local of every frame, built by
        :meth:`~repro.vm.process.Process.register_stack_blocks` — in one
        merge, as :meth:`register_heap_bulk` does.  Nothing is registered
        when any logical id is already taken."""
        if blocks:
            self._merge(blocks)
            self._stack.extend(blocks)

    def _merge(self, blocks: Sequence[MemoryBlock]) -> dict[LogicalId, MemoryBlock]:
        """Insert *blocks*, in any address order, into the logical-id
        index and the sorted arrays: a slice assignment where one gap
        of the table takes them all, a linear merge of two ascending
        runs otherwise.  Returns them by logical id."""
        by_logical = self._by_logical
        fresh = {b.logical: b for b in blocks}
        if len(fresh) != len(blocks) or not by_logical.keys().isdisjoint(fresh):
            taken = next(
                b.logical for b in blocks
                if b.logical in by_logical or fresh[b.logical] is not b
            )
            raise MSRLTError(f"duplicate registration of {taken}")
        blocks = sorted(blocks, key=_ADDR)
        starts = [b.addr for b in blocks]
        i = bisect_right(self._starts, starts[0])
        if i == bisect_right(self._starts, starts[-1]):
            # one gap takes them all (always, for blocks fresh off the brk,
            # and for a stack above or below everything else)
            self._starts[i:i] = starts
            self._blocks[i:i] = blocks
        else:
            # two ascending runs: the sort is a linear merge
            self._blocks = sorted(self._blocks + blocks, key=_ADDR)
            self._starts = [b.addr for b in self._blocks]
        by_logical.update(fresh)
        self.n_registrations += len(blocks)
        return fresh

    def unregister(self, addr: int) -> None:
        """Remove the block starting exactly at *addr* (``free``)."""
        i = bisect_right(self._starts, addr) - 1
        if i < 0 or self._starts[i] != addr:
            raise MSRLTError(f"no block registered at {addr:#x}")
        block = self._blocks.pop(i)
        self._starts.pop(i)
        del self._by_logical[block.logical]
        if block.logical[0] == BlockKind.STACK:
            self._stack.remove(block)
        if self.journal is not None:
            self.journal.append(block)

    def drop_stack_blocks(self) -> None:
        """Remove all stack-kind blocks (collection-time registrations)."""
        stack, self._stack = self._stack, []
        if not stack:
            return
        i = bisect_left(self._starts, min(b.addr for b in stack))
        j = i + len(stack)
        if bisect_right(self._starts, max(b.addr for b in stack)) == j:
            # the stack blocks are one run of the sorted arrays, as their
            # segment holds nothing else: a tail slice where the stack
            # sits above everything, a head slice where it sits below
            del self._starts[i:j]
            del self._blocks[i:j]
            for block in stack:
                del self._by_logical[block.logical]
            return
        keep = [b for b in self._blocks if b.logical[0] != BlockKind.STACK]
        self._blocks = keep
        self._starts = [b.addr for b in keep]
        self._by_logical = {b.logical: b for b in keep}

    # -- lookup -----------------------------------------------------------------------

    def lookup_addr(self, addr: int) -> tuple[MemoryBlock, int]:
        """Map a machine address to ``(block, byte offset within block)``.

        This is the MSRLT *search* of the paper's collection complexity:
        a binary search over registered block start addresses, then one
        containment test.  Blocks never abut, so the last block starting
        at or below *addr* is the only one that can hold it — its
        one-past-the-end address included.  ``n_searches`` feeds the E5
        complexity benchmark.
        """
        self.n_searches += 1
        i = bisect_right(self._starts, addr) - 1
        if i >= 0:
            block = self._blocks[i]
            if addr <= block.addr + block.size:  # one past the end is in
                return block, addr - block.addr
        raise MSRLTError(f"address {addr:#x} is not inside any registered block")

    def count_searches(self, n: int) -> None:
        """Book *n* searches a plan resolved in bulk and then committed
        to the wire, counted as *n* :meth:`lookup_addr` binary searches —
        so E5's complexity counter reads the same whichever path ran.
        The bulk lookups themselves are free: plans look up
        speculatively and count only what they emit."""
        self.n_searches += n

    def blocks_overlapping(self, lo: int, hi: int) -> list[MemoryBlock]:
        """All registered blocks intersecting the byte range ``[lo, hi)``.

        Used by pre-copy dirty resolution: the write-barrier interval log
        is address-based, and this bisect maps each merged interval back
        to the blocks it touched.  Intervals over unregistered memory
        (e.g. a block freed after the write) simply yield nothing.
        """
        if lo >= hi:
            return []
        out: list[MemoryBlock] = []
        i = bisect_right(self._starts, lo) - 1
        if i >= 0 and self._blocks[i].end <= lo:
            i += 1
        elif i < 0:
            i = 0
        n = len(self._blocks)
        while i < n and self._starts[i] < hi:
            out.append(self._blocks[i])
            i += 1
        return out

    def lookup_logical(self, logical: LogicalId) -> MemoryBlock:
        """Map a machine-independent id back to its block (restoration)."""
        if type(logical) is not tuple:
            logical = tuple(logical)
        block = self._by_logical.get(logical)
        if block is None:
            raise MSRLTError(f"no block with logical id {logical}")
        return block

    @property
    def sorted_index(self) -> tuple[list[int], list[MemoryBlock]]:
        """The address-sorted parallel arrays themselves, ``(starts,
        blocks)`` — live, not copies, and read-only by contract; any
        registration may replace them, so read them afresh per use.  The
        plans search them as :meth:`lookup_addr` does: a chain batch with
        one bisect per linked node, a pointer array with one per
        distinct target block.  There is no other index of the table."""
        return self._starts, self._blocks

    def non_stack_by_logical(self) -> dict[LogicalId, MemoryBlock]:
        """A copy of the logical-id index without the stack blocks: what
        a pass that lands on a pre-warmed process may ``REF`` before any
        record of its own payload defined it.  Pre-copy reads it once,
        after the snapshot, and from then on keeps it as a ledger
        (``run_precopy``'s ``held``) instead of reading it out at the
        stop; this scan is what the tests hold the ledger to."""
        held = dict(self._by_logical)
        for block in self._stack:
            del held[block.logical]
        return held

    def has_logical(self, logical: LogicalId) -> bool:
        """Whether a block with this logical id is registered."""
        if type(logical) is not tuple:
            logical = tuple(logical)
        return logical in self._by_logical

    def blocks(self) -> list[MemoryBlock]:
        """All registered blocks in address order (copy)."""
        return list(self._blocks)

    def heap_blocks(self) -> list[MemoryBlock]:
        """All heap-kind blocks, in address order."""
        return [b for b in self._blocks if b.logical[0] == BlockKind.HEAP]

    def total_bytes(self) -> int:
        """Σ Dᵢ — the total size of all registered blocks (§4.2)."""
        return sum(b.size for b in self._blocks)
