"""Pre-copy delta rounds and the stop-and-copy stream that follows them.

One idea serves both: **a block the destination already holds is a
visited block** (the paper's §3.1 rule, "visited memory blocks are marked
so that they are not saved again", applied across passes).  The
collectors here are the ordinary :class:`~repro.msr.collect.Collector`
born with a non-empty visited set, the restorers the ordinary
:class:`~repro.msr.restore.Restorer` born with the mapping of what the
scratch process holds; every pointer to such a block is then an ordinary
``REF``, the traversal stops there, and the compiled plans — which
classify targets through those same two tables — run unmodified.

One delta round carries the MSRLT-level diff of the source since the
previous round: heap blocks freed, blocks newly registered, and the
contents of blocks the write barriers marked dirty.  The round payload
(framed into ``MDLT`` chunks by the transport) is::

    u32 round_no
    u32 n_freed;  n_freed  x  logical                      (HEAP only)
    u32 n_new;    n_new    x  (logical, u32 type_id, u32 count)
    u32 n_blocks; n_blocks x  (logical, u8 state, [flags + contents])

``state`` 0 means the block's contents follow (exactly what a ``BLOCK``
record carries after its header, :meth:`Collector.save_contents`: the
flags byte, then the contents through the type's plan); 1 means the block was
*deferred* — one of its pointers could not be expressed as a ``REF``
(dangling, or aimed at the stack, which is unregistered while the source
runs) — and will arrive in the final stop-and-copy stream instead.
Rounds carry no ``BLOCK`` record: the destination holds every shippable
target (earlier rounds or this round's ``new`` section).

The final stop-and-copy stream is the ordinary full collection with the
clean, already-delivered blocks (*cached*) born visited, so a clean
global is one root ``REF`` and nothing behind a clean block is walked.
What that walk used to find — a stale block reachable only through clean
ones — travels in a **tail section** after the globals::

    (u8 1, root record)*  u8 0

one ordinary root record per live non-stack block that is neither cached
nor visited by then, in logical-id order.  With nothing cached the
stream is the plain stream plus the terminator byte.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.arch.buffers import ReadBuffer, WriteBuffer
from repro.msr.collect import Collector
from repro.msr.msrlt import BlockKind, MemoryBlock, MSRLTError
from repro.msr.restore import RestoreError, Restorer
from repro.msr.wire import read_logical, write_logical

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
    """Contents-only collector for delta rounds.

    *known* — the logical ids the destination holds (earlier rounds plus
    this round's ``new`` section) — is the visited set from the first
    record on, so every pointer into it is a ``REF``, from a plan or from
    the traversal driver, and nothing is traversed.  A pointer that
    cannot be one (dangling, or aimed at a block outside *known*) defers
    its block to the final stream: the driver brings both cases to the
    two rules below.
    """

    def __init__(self, process, buf: WriteBuffer, known: set) -> None:
        super().__init__(process, buf)
        self._visited = known  # never grows: no BLOCK record is emitted

    def _dangling(self, value: int) -> None:
        raise DeltaDefer(f"pointer {value:#x} has no shippable target") from None

    def _first_visit(self, block: MemoryBlock) -> None:
        raise DeltaDefer(
            f"pointer aims at {block.logical}, which the destination does not hold"
        )


class _PrewarmedRestorer(Restorer):
    """A restorer of state that lands on what the scratch process already
    holds: born with the mapping of every non-stack block registered
    there, so a ``REF`` to a block no record of this payload defined
    resolves.  (Build it once the blocks are registered.)"""

    def __init__(self, process, buf) -> None:
        super().__init__(process, buf)
        self._mapping = {
            b.logical: b
            for b in self.msrlt.blocks()
            if b.logical[0] != BlockKind.STACK
        }

    def _prefault_registered(self) -> None:
        # the snapshot restore materialized the windows; walking the
        # whole table again would cost more than the few blocks a round
        # or the final stream touches
        return


class DeltaRestorer(_PrewarmedRestorer):
    """Contents-only restorer for delta rounds: ``NULL``/``REF`` records
    against the blocks of earlier rounds and this round's ``new``
    section."""

    def _resolve_block(self, logical: tuple, info, count: int) -> MemoryBlock:
        raise RestoreError("BLOCK record in a delta round (rounds carry NULL/REF only)")


class PrecopyFinalCollector(Collector):
    """The stop-and-copy collector: a full collection pass in which the
    blocks the delta rounds already delivered are born visited.

    *cached* is the set of logical ids whose destination copy is known
    byte-fresh (shipped in some round and not dirtied since).
    """

    def __init__(self, process, buf: WriteBuffer, cached: Iterable[tuple] = ()) -> None:
        super().__init__(process, buf)
        self._visited = set(cached)

    def save_tail(self) -> None:
        """Tail roots: the live non-stack blocks no root reached.  Behind
        a clean block nothing is walked, so a stale block only clean ones
        point to (or none: the rounds ship leaked blocks too) is a root
        of its own."""
        visited = self._visited
        stale = [
            b for b in self.msrlt.blocks()
            if b.logical[0] != BlockKind.STACK and b.logical not in visited
        ]
        stale.sort(key=lambda b: b.logical)
        for block in stale:
            if block.logical not in visited:  # an earlier tail root may lead here
                self.buf.write_u8(1)
                self.save_variable(block)
        self.buf.write_u8(0)


class PrecopyFinalRestorer(_PrewarmedRestorer):
    """The stop-and-copy restorer, applied to the pre-warmed scratch: a
    ``BLOCK`` record for a heap block the scratch holds restores *in
    place* instead of allocating a duplicate, and the tail section is
    read after the globals."""

    def restore_tail(self) -> None:
        while True:
            marker = self.buf.read_u8()
            if marker == 0:
                return
            if marker != 1:
                raise RestoreError(f"bad tail marker {marker}")
            self.restore_pointer()

    def _resolve_block(self, logical: tuple, info, count: int) -> MemoryBlock:
        block = self._mapping.get(logical)
        if block is None:
            return super()._resolve_block(logical, info, count)
        if info.size * count != block.size:
            raise RestoreError(
                f"record for {logical} claims {info.size * count} bytes "
                f"but the pre-copied block is {block.size} bytes"
            )
        return block


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
    known: set,
) -> RoundResult:
    """Serialize one delta round on the source.

    *freed* are HEAP logicals the destination holds that the source has
    since freed; *new_blocks* are blocks registered since the previous
    round (their registration must precede any contents that REF them);
    *dirty_blocks* are the blocks to (re)ship contents for — new blocks
    are expected to appear here too.  *known* is what the destination
    holds once the ``new`` section is applied — the only blocks a ``REF``
    may name; see :class:`DeltaCollector`.
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
    coll = DeltaCollector(process, WriteBuffer(), known)
    for block in dirty_blocks:
        write_logical(out, block.logical)
        # each block gets its own buffer so a mid-contents DeltaDefer
        # leaves no partial bytes in the round payload
        coll.buf = WriteBuffer()
        try:
            coll.save_contents(block)
        except DeltaDefer:
            out.write_u8(1)
            deferred.append(block.logical)
        else:
            out.write_u8(0)
            out.write(coll.buf.getvalue())
            shipped.append(block.logical)
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
    # carved as a restoration walk carves, registered in one go
    new: dict[tuple, MemoryBlock] = {}
    for _ in range(n_new):
        logical = read_logical(buf)
        type_id = buf.read_u32()
        count = buf.read_u32()
        try:
            info = ti.info(type_id)
        except LookupError:
            raise RestoreError(
                f"round registration for {logical} names unknown type id {type_id}"
            ) from None
        if logical[0] == BlockKind.HEAP:
            if logical in new or msrlt.has_logical(logical):
                raise RestoreError(f"duplicate registration of {logical} in round")
            size = info.size * count
            new[logical] = MemoryBlock(
                process.memory.heap_carve(size), info.ctype, count, size, logical
            )
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
    msrlt.register_heap_bulk(list(new.values()))
    rest = DeltaRestorer(process, buf)
    rest.stats.n_heap_allocs = len(new)
    n_blocks = buf.read_u32()
    for _ in range(n_blocks):
        logical = read_logical(buf)
        state = buf.read_u8()
        if state == 1:
            continue  # deferred: arrives in the stop-and-copy stream
        if state != 0:
            raise RestoreError(f"bad delta block state {state} for {logical}")
        block = rest._mapping.get(logical)
        if block is None:
            raise RestoreError(f"delta contents for unknown block {logical}")
        rest.restore_contents(block)
    if not buf.at_end():
        raise RestoreError(f"{buf.remaining} trailing bytes in delta round")
    return rest.stats
