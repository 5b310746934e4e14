"""Pre-copy delta rounds: collect and restore only-dirty blocks.

One delta round carries the MSRLT-level diff of the source since the
previous round: heap blocks freed, blocks newly registered, and the
contents of blocks the write barriers marked dirty.  The round payload
(framed into ``MDLT`` chunks by the transport) is::

    u32 round_no
    u32 n_freed;  n_freed  x  logical                      (HEAP only)
    u32 n_new;    n_new    x  (logical, u32 type_id, u32 count)
    u32 n_blocks; n_blocks x  (logical, u8 state, [flags + contents])

``state`` 0 means the block's contents follow (exactly what the full
collector's ``_save_contents`` emits: the flags byte, then the contents
through the type's plan or the per-cell path); 1 means the block was
*deferred* — one of its pointers could not be expressed as a ``REF``
(dangling, or aimed at the stack, which never ships in rounds) — and
will arrive in the final stop-and-copy stream instead.

Inside round contents every pointer is encoded as ``NULL`` or ``REF``:
the destination already holds every shippable target (earlier rounds or
this round's ``new`` section), so rounds never recurse.  The final
stop-and-copy stream is the ordinary full collection, except blocks
whose contents are already on the destination and clean ship as
:data:`~repro.msr.wire.TAG_CACHED` stubs: logical id + ordinal + one
record per pointer cell (so the depth-first traversal still reaches
dirty or new blocks hiding behind clean ones) and no scalar contents.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.arch.buffers import ReadBuffer, WriteBuffer
from repro.msr.collect import Collector
from repro.msr.msrlt import BlockKind, MemoryBlock, MSRLTError
from repro.msr.restore import RestoreError, Restorer
from repro.msr.wire import (
    TAG_CACHED,
    TAG_NULL,
    TAG_REF,
    read_logical,
    write_logical,
)

__all__ = [
    "DeltaDefer",
    "DeltaCollector",
    "DeltaRestorer",
    "PrecopyFinalCollector",
    "PrecopyFinalRestorer",
    "RoundResult",
    "build_round",
    "apply_round",
]


class DeltaDefer(Exception):
    """A dirty block cannot ship in this round (pointer without a
    shippable REF target); it is deferred to the stop-and-copy stream."""


class DeltaCollector(Collector):
    """Contents-only collector for delta rounds: REF/NULL pointers, no
    traversal, no BLOCK records.

    *known*, when given, is the set of logical ids the destination holds
    (earlier rounds plus this round's ``new`` section).  A pointer whose
    target falls outside it — a block that was unreachable at snapshot
    time and surfaced since, without itself being written — cannot be
    expressed as a ``REF``, so the block defers to the final stream.
    """

    pointer_plans = False

    def __init__(self, process, buf: WriteBuffer, known=None) -> None:
        super().__init__(process, buf)
        self.known = known

    def save_pointer(self, value: int) -> None:
        if value == 0:
            self.buf.write_u8(TAG_NULL)
            self.buf.count_tag("NULL")
            self.stats.n_nulls += 1
            return
        try:
            block, off = self.msrlt.lookup_addr(value)
        except MSRLTError:
            raise DeltaDefer(f"pointer {value:#x} has no shippable target") from None
        if block.logical[0] == BlockKind.STACK:
            # stack blocks never ship in rounds (they travel only in the
            # final stream, after the source has genuinely stopped)
            raise DeltaDefer(f"pointer {value:#x} aims at the stack")
        if self.known is not None and block.logical not in self.known:
            raise DeltaDefer(
                f"pointer {value:#x} aims at {block.logical}, which the "
                f"destination does not hold yet"
            )
        info = self.ti.info_for(block.elem_type)
        self.buf.write_u8(TAG_REF)
        self.buf.count_tag("REF")
        write_logical(self.buf, block.logical)
        self.buf.write_u32(info.byte_to_ordinal(off, block.count))
        self.stats.n_refs += 1

    def _save_target(self, block: MemoryBlock, byte_off: int) -> None:  # pragma: no cover
        raise AssertionError("delta rounds never emit BLOCK records")


class DeltaRestorer(Restorer):
    """Contents-only restorer for delta rounds.

    The destination MSRLT itself is the cross-round ledger: every REF
    resolves through ``lookup_logical`` (blocks registered by earlier
    rounds or by this round's ``new`` section), not the per-pass mapping.
    """

    pointer_plans = False

    def _prefault_registered(self) -> None:
        # rounds touch few blocks; the full-table prefault (and its
        # arena rebuild) would cost more than it saves
        return

    def restore_pointer(self, expected: MemoryBlock | None = None) -> int:
        tag = self.buf.read_u8()
        if tag == TAG_NULL:
            self.stats.n_nulls += 1
            return 0
        if tag != TAG_REF:
            raise RestoreError(f"bad delta record tag {tag} (rounds carry NULL/REF only)")
        logical = read_logical(self.buf)
        ordinal = self.buf.read_u32()
        try:
            block = self.msrlt.lookup_logical(logical)
        except MSRLTError:
            raise RestoreError(f"delta REF to unknown block {logical}") from None
        self.stats.n_refs += 1
        info = self.ti.info_for(block.elem_type)
        return block.addr + info.ordinal_to_byte(ordinal, block.count)


class PrecopyFinalCollector(Collector):
    """The stop-and-copy collector: a full collection pass that elides
    the contents of blocks the delta rounds already delivered.

    *cached* is the set of logical ids whose destination copy is known
    byte-fresh (shipped in some round and not dirtied since).  A cached
    block's first visit emits a :data:`TAG_CACHED` stub — logical id,
    ordinal, then one record per pointer cell so the traversal continues
    behind it — instead of a ``BLOCK`` record with contents.
    """

    pointer_plans = False

    def __init__(self, process, buf: WriteBuffer, cached: Iterable[tuple] = ()) -> None:
        super().__init__(process, buf)
        self.cached = frozenset(cached)

    def _save_target(self, block: MemoryBlock, byte_off: int) -> None:
        if block.logical in self.cached and block.logical not in self._visited:
            info = self.ti.info_for(block.elem_type)
            self._visited.add(block.logical)
            self.buf.write_u8(TAG_CACHED)
            self.buf.count_tag("CACHED")
            write_logical(self.buf, block.logical)
            self.buf.write_u32(info.byte_to_ordinal(byte_off, block.count))
            self.stats.n_cached_blocks += 1
            memory = self.memory
            addr = block.addr
            stride = info.unit_size
            cells = info.cells
            for unit in range(info.units_in(block.count)):
                base = addr + unit * stride
                for cell in cells:
                    if cell.kind == "ptr":
                        self.save_pointer(memory.load("ptr", base + cell.offset))
            return
        super()._save_target(block, byte_off)


class PrecopyFinalRestorer(Restorer):
    """The stop-and-copy restorer, applied to the pre-warmed scratch.

    Two deviations from the plain restorer: ``TAG_CACHED`` stubs resolve
    against the blocks the delta rounds already built (contents stay,
    pointer cells are re-stored from the stub's records), and ``BLOCK``
    records for heap blocks the scratch already holds restore *in place*
    instead of allocating a duplicate.
    """

    pointer_plans = False

    def restore_pointer(self, expected: MemoryBlock | None = None) -> int:
        if self.buf.peek_u8() != TAG_CACHED:
            return super().restore_pointer(expected)
        self.buf.read_u8()
        logical = read_logical(self.buf)
        ordinal = self.buf.read_u32()
        try:
            block = self.msrlt.lookup_logical(logical)
        except MSRLTError:
            raise RestoreError(f"cached stub for unknown block {logical}") from None
        if expected is not None and block.logical != expected.logical:
            raise RestoreError(
                f"cached stub for {logical} arrived where "
                f"{expected.logical} was expected"
            )
        self._mapping[tuple(logical)] = block
        self.stats.n_cached_blocks += 1
        # mirror the collector's walk: one record per pointer cell.  The
        # stored values equal what the rounds left there (pointers are
        # logical-stable), so the re-store is idempotent by construction.
        info = self.ti.info_for(block.elem_type)
        memory = self.memory
        stride = info.unit_size
        cells = info.cells
        for unit in range(info.units_in(block.count)):
            base = block.addr + unit * stride
            for cell in cells:
                if cell.kind == "ptr":
                    memory.store("ptr", base + cell.offset, self.restore_pointer())
        return block.addr + info.ordinal_to_byte(ordinal, block.count)

    def _resolve_block(self, logical: tuple, info, count: int) -> MemoryBlock:
        if logical[0] == BlockKind.HEAP and self.msrlt.has_logical(logical):
            block = self.msrlt.lookup_logical(logical)
            if info.size * count != block.size:
                raise RestoreError(
                    f"record for {logical} claims {info.size * count} bytes "
                    f"but the pre-copied block is {block.size} bytes"
                )
            return block
        return super()._resolve_block(logical, info, count)


class RoundResult:
    """What one :func:`build_round` produced."""

    __slots__ = ("payload", "shipped", "deferred", "stats")

    def __init__(self, payload, shipped, deferred, stats) -> None:
        self.payload = payload
        self.shipped = shipped  # logicals whose contents are in the payload
        self.deferred = deferred  # logicals punted to the final stream
        self.stats = stats


def build_round(
    process,
    round_no: int,
    freed: Sequence[tuple],
    new_blocks: Sequence[MemoryBlock],
    dirty_blocks: Sequence[MemoryBlock],
    known=None,
) -> RoundResult:
    """Serialize one delta round on the source.

    *freed* are HEAP logicals the destination holds that the source has
    since freed; *new_blocks* are blocks registered since the previous
    round (their registration must precede any contents that REF them);
    *dirty_blocks* are the blocks to (re)ship contents for — new blocks
    are expected to appear here too.  *known* (optional) bounds the REF
    targets to what the destination holds; see :class:`DeltaCollector`.
    """
    out = WriteBuffer()
    out.write_u32(round_no)
    out.write_u32(len(freed))
    for logical in freed:
        if logical[0] != BlockKind.HEAP:
            raise MSRLTError(f"only heap blocks can be freed mid-migration: {logical}")
        write_logical(out, logical)
    ti = process.ti
    out.write_u32(len(new_blocks))
    for block in new_blocks:
        write_logical(out, block.logical)
        info = ti.info_for(block.elem_type)
        out.write_u32(info.type_id)
        out.write_u32(block.count)
    out.write_u32(len(dirty_blocks))
    shipped: list[tuple] = []
    deferred: list[tuple] = []
    coll = DeltaCollector(process, WriteBuffer(), known=known)
    for block in dirty_blocks:
        write_logical(out, block.logical)
        # each block gets its own buffer so a mid-contents DeltaDefer
        # leaves no partial bytes in the round payload
        coll.buf = WriteBuffer()
        info = ti.info_for(block.elem_type)
        try:
            coll._save_contents(block, info)
        except DeltaDefer:
            out.write_u8(1)
            deferred.append(block.logical)
        else:
            out.write_u8(0)
            out.write(coll.buf.getvalue())
            shipped.append(block.logical)
            coll.stats.n_blocks += 1
            coll.stats.data_bytes += block.size
    stats = coll.finish()
    stats.wire_bytes = out.nbytes
    return RoundResult(out.getvalue(), shipped, deferred, stats)


def apply_round(process, payload, expected_round: int):
    """Apply one delta round to the destination scratch process.

    Returns the :class:`~repro.msr.restore.RestoreStats` of the round.
    Raises :class:`~repro.msr.restore.RestoreError` on any structural
    disagreement (wrong round number, REF to an unknown block, freed
    logical the scratch does not hold) — the engine maps that to its
    retryable error family exactly like a full-stream restore failure.
    """
    buf = ReadBuffer(payload)
    rest = DeltaRestorer(process, buf)
    msrlt = process.msrlt
    ti = process.ti
    round_no = buf.read_u32()
    if round_no != expected_round:
        raise RestoreError(
            f"delta round {round_no} arrived where round {expected_round} "
            f"was expected"
        )
    n_freed = buf.read_u32()
    for _ in range(n_freed):
        logical = read_logical(buf)
        if logical[0] != BlockKind.HEAP:
            raise RestoreError(f"freed record for non-heap block {logical}")
        try:
            block = msrlt.lookup_logical(logical)
        except MSRLTError:
            raise RestoreError(f"freed record for unknown block {logical}") from None
        msrlt.unregister(block.addr)
        process.memory.heap_free(block.addr)
    n_new = buf.read_u32()
    for _ in range(n_new):
        logical = read_logical(buf)
        type_id = buf.read_u32()
        count = buf.read_u32()
        info = ti.info(type_id)
        if logical[0] == BlockKind.HEAP:
            if msrlt.has_logical(logical):
                raise RestoreError(f"duplicate registration of {logical} in round")
            process.restore_heap_block(info.ctype, count, serial=logical[1])
            rest.stats.n_heap_allocs += 1
        elif logical[0] == BlockKind.GLOBAL:
            # globals pre-exist on the destination; just validate
            block = msrlt.lookup_logical(logical)
            if info.size * count != block.size:
                raise RestoreError(
                    f"round registration for {logical} claims "
                    f"{info.size * count} bytes, destination block is "
                    f"{block.size} bytes"
                )
        else:
            raise RestoreError(f"stack block {logical} in a delta round")
    n_blocks = buf.read_u32()
    for _ in range(n_blocks):
        logical = read_logical(buf)
        state = buf.read_u8()
        if state == 1:
            continue  # deferred: arrives in the stop-and-copy stream
        if state != 0:
            raise RestoreError(f"bad delta block state {state} for {logical}")
        try:
            block = msrlt.lookup_logical(logical)
        except MSRLTError:
            raise RestoreError(f"delta contents for unknown block {logical}") from None
        info = ti.info_for(block.elem_type)
        rest._restore_contents(block, info)
        rest.stats.n_blocks += 1
        rest.stats.data_bytes += block.size
    if not buf.at_end():
        raise RestoreError(f"{buf.remaining} trailing bytes in delta round")
    return rest.stats
