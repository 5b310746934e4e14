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
previous round: heap blocks freed, blocks newly registered, and what the
write barriers saw written.  The transport ships each round as a chunk
stream of its own, in the frames of any transfer (:mod:`repro.msr.wire`);
the round payload those frames carry is::

    u32 round_no
    u32 n_freed;  n_freed  x  logical                      (HEAP only)
    u32 n_new;    n_new    x  (logical, u16 type_id, u32 count)
    u32 n_blocks; n_blocks x  (logical, u8 state, body)

``logical`` is :func:`~repro.msr.wire.write_logical`'s ``u8 kind, u32 a``
(and ``u32 b`` for a stack id, which no round names): 5 bytes, so a
``freed`` entry is 5 bytes, a ``new`` entry 11, and a block entry 6 plus
its body.  ``state`` says what *body* is:

0. **whole** — the block's contents: exactly what a ``BLOCK`` record
   carries after its header (:meth:`Collector.save_contents`: the
   contents through the type's plan, nothing before them).
1. **deferred** — no body.  One of the block's pointers could not be
   expressed as a ``REF`` (dangling, or aimed at the stack, which is
   unregistered while the source runs); the block arrives in the final
   stop-and-copy stream instead.
2. **runs** — only the units the slice wrote::

       u32 n_runs;  n_runs  x  (u32 first_unit, u32 n_units, contents)

   A *unit* is the type's innermost non-array element
   (:class:`~repro.msr.ti.TypeInfo`: ``unit``, ``unit_size``), so a run
   never splits a struct and steps over its padding like any block
   does.  The contents of a run are, on both sides, the contents of a
   block of ``n_units`` x the unit type at ``addr + first_unit *
   unit_size`` — the same plan (or per-cell reference), the same
   ``REF``-or-defer rule.  Runs ascend and do not
   overlap; a deferred run defers its whole block.

Which form a dirty block takes is the source's decision
(:func:`unit_runs`), on two facts.  *Freshness*: only a block whose
destination copy was byte-identical before the slice may ship as runs —
its copy then differs from the source inside the slice's write intervals
and nowhere else.  A new block, and a block an earlier round deferred
(its destination copy is stale from older writes this slice's intervals
do not cover, however little this slice wrote), ship whole.  *Size*: the
run form spends 4 bytes on its count and 8 on each run's header where
the whole form spends nothing, so a
block takes it only when the units left out are sure to weigh more — a
block whose runs cover every unit, or one written in many scattered
places, keeps the whole form, and no round is larger for shipping runs.

Rounds carry no ``BLOCK`` record: the destination holds every shippable
target (earlier rounds or this round's ``new`` section).

The final stop-and-copy stream is the ordinary full collection with the
clean, already-delivered blocks (*fresh*) born visited, so a clean
global is one root ``REF`` and nothing behind a clean block is walked.
What that walk used to find — a stale block reachable only through clean
ones — travels in a **tail section** after the globals::

    (u8 1, root record)*  u8 0

one ordinary root record per live non-stack block that is neither fresh
nor visited by then, in logical-id order.  With nothing fresh and
nothing leaked the stream is the plain stream plus the terminator byte.

Neither side finds those sets by reading a table out at the stop: the
pre-copy loop (:func:`repro.migration.precopy.run_precopy`) keeps them
as ledgers, round by round, and the final collector and restorer are
born owning them — the pause costs what is stale, whatever the heap
holds.
"""

from __future__ import annotations

import struct
import sys
from typing import Optional, Sequence

from repro.arch.buffers import ReadBuffer, WriteBuffer
from repro.msr.collect import Collector
from repro.msr.graphplan import ARENA_REBUILD_BLOCKS_PER_POINTER
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
    "unit_runs",
    "build_round",
    "apply_round",
]

#: the ``state`` byte of a round's block entry
_WHOLE, _DEFERRED, _RUNS = 0, 1, 2
#: what precedes the contents of one run: ``first_unit``, ``n_units``
_RUN_HEADER = struct.Struct(">II")


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

    def __init__(self, process, buf: WriteBuffer, known) -> None:
        super().__init__(process, buf)
        # only ever asked ``in`` (a set, or a dict's keys): it never
        # grows, no BLOCK record is emitted
        self._visited = known

    def _dangling(self, value: int) -> None:
        raise DeltaDefer(f"pointer {value:#x} has no shippable target") from None

    def _first_visit(self, block: MemoryBlock) -> None:
        raise DeltaDefer(
            f"pointer aims at {block.logical}, which the destination does not hold"
        )


class _PrewarmedRestorer(Restorer):
    """A restorer of state that lands on what the scratch process already
    holds: born with *held*, the mapping of every non-stack block
    registered there, so a ``REF`` to a block no record of this payload
    defined resolves."""

    def __init__(self, process, buf, held: dict) -> None:
        super().__init__(process, buf)
        self._mapping = held

    def _prefault_registered(self) -> None:
        # the snapshot restore materialized the windows; walking the
        # whole table again would cost more than the few blocks a round
        # or the final stream touches
        return


class DeltaRestorer(_PrewarmedRestorer):
    """Contents-only restorer for delta rounds: ``NULL``/``REF`` records
    against the blocks of earlier rounds and this round's ``new``
    section.

    Its mapping is the scratch MSRLT's own logical-id index, not a copy
    (between passes the scratch holds no stack block, so the index *is*
    what a round may ``REF``): a round costs what it carries, whatever
    the size of the table.  Nothing here may therefore write the
    mapping.  A round defines no block — ``_resolve_block`` refuses — so
    the one writer left is a chain batch, and no tail slot is ever
    offered to one."""

    def __init__(self, process, buf) -> None:
        super().__init__(process, buf, process.msrlt.by_logical)
        self.chain_backoff.skip = sys.maxsize

    def _resolve_block(self, logical: tuple, info, count: int) -> MemoryBlock:
        raise RestoreError("BLOCK record in a delta round (rounds carry NULL/REF only)")


class PrecopyFinalCollector(Collector):
    """The stop-and-copy collector: a full collection pass in which the
    blocks the delta rounds already delivered are born visited.

    *fresh* and *stale* are ``run_precopy``'s ledgers of the source's
    live non-stack blocks, handed over, not copied: *fresh* — the
    destination's copy is byte-identical (shipped in some round and not
    written since) — IS the visited set from the first record on, and
    *stale* is every other one, the only blocks this pass can emit a
    ``BLOCK`` record for besides the stack's.
    """

    def __init__(self, process, buf: WriteBuffer, fresh: set, stale: set) -> None:
        super().__init__(process, buf)
        self._visited = fresh
        self._stale = stale
        # a chain batch searches an arena built over the whole table; at
        # most len(stale) nodes can ride one, so tail slots are offered
        # only when that many pointers would pay for the build — the
        # test a pointer array applies to itself
        if len(stale) * ARENA_REBUILD_BLOCKS_PER_POINTER < len(self.msrlt):
            self.chain_backoff.skip = sys.maxsize

    def save_tail(self) -> None:
        """Tail roots: the live non-stack blocks no root reached.  Behind
        a clean block nothing is walked, so a stale block only clean ones
        point to (or none: the rounds ship leaked blocks too) is a root
        of its own."""
        visited = self._visited
        lookup = self.msrlt.lookup_logical
        for logical in sorted(self._stale):
            if logical not in visited:  # a root, or an earlier tail root, may lead here
                self.buf.write_u8(1)
                self.save_variable(lookup(logical))
        self.buf.write_u8(0)


class PrecopyFinalRestorer(_PrewarmedRestorer):
    """The stop-and-copy restorer, applied to the pre-warmed scratch: a
    ``BLOCK`` record for a heap block the scratch holds (*held*,
    ``run_precopy``'s ledger of it, handed over and grown by this pass)
    restores *in place* instead of allocating a duplicate, and the tail
    section is read after the globals."""

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


def unit_runs(info, count: int, spans) -> Optional[list[tuple[int, int]]]:
    """The unit runs ``[(first_unit, n_units), ...]`` covering the byte
    *spans* ``[(lo, hi), ...]`` (block-relative, ascending, disjoint)
    written into a block of *count* elements of *info*'s type — or
    ``None`` when the whole form is sure to be no larger (the size rule
    of the module docstring)."""
    floor = info.wire_floor // info.repeat  # fewest wire bytes of one unit
    if not floor:
        return None
    size = info.unit_size
    runs: list[list[int]] = []  # [first, stop), merged where they touch
    for lo, hi in spans:
        first, stop = lo // size, -(-hi // size)
        if runs and first <= runs[-1][1]:
            runs[-1][1] = max(stop, runs[-1][1])
        else:
            runs.append([first, stop])
    left_out = info.units_in(count) - sum(stop - first for first, stop in runs)
    if 4 + _RUN_HEADER.size * len(runs) > left_out * floor:
        return None
    return [(first, stop - first) for first, stop in runs]


def _unit_block(block: MemoryBlock, info, first: int, n: int) -> MemoryBlock:
    """Units ``first .. first + n`` of *block* as a block of their own:
    what a run's contents are the contents of."""
    size = info.unit_size
    return MemoryBlock(block.addr + first * size, info.unit, n, n * size, block.logical)


def build_round(
    process,
    round_no: int,
    freed: Sequence[tuple],
    new_blocks: Sequence[MemoryBlock],
    dirty: Sequence[tuple],
    known,
) -> RoundResult:
    """Serialize one delta round on the source.

    *freed* are HEAP logicals the destination holds that the source has
    since freed; *new_blocks* are blocks registered since the previous
    round (their registration must precede any contents that REF them);
    *dirty* are the blocks to (re)ship contents for, as ``(block,
    spans)`` — new blocks are expected to appear here too.  *spans* are
    the block-relative byte intervals the slice wrote (ascending,
    disjoint) when the destination's copy was byte-fresh before it, so
    that the block may ship as unit runs; ``None`` ships it whole.
    *known* (a set of logical ids, or a dict keyed by them) is what the
    destination holds once the ``new`` section is applied — the only
    blocks a ``REF`` may name; see :class:`DeltaCollector`.
    """
    out = WriteBuffer()
    out.write_u32(round_no)
    out.write_u32(len(freed))
    for logical in freed:
        if logical[0] != BlockKind.HEAP:
            raise MSRLTError(f"only heap blocks can be freed mid-migration: {logical}")
        write_logical(out, logical)
    info_for = process.ti.info_for
    out.write_u32(len(new_blocks))
    for block in new_blocks:
        write_logical(out, block.logical)
        out.write_u16(info_for(block.elem_type).type_id)
        out.write_u32(block.count)
    out.write_u32(len(dirty))
    shipped: list[tuple] = []
    deferred: list[tuple] = []
    coll = DeltaCollector(process, WriteBuffer(), known)
    for block, spans in dirty:
        write_logical(out, block.logical)
        runs = None
        if spans is not None:
            info = info_for(block.elem_type)
            runs = unit_runs(info, block.count, spans)
        # each block gets its own buffer so a mid-contents DeltaDefer
        # leaves no partial bytes in the round payload
        body = coll.buf = WriteBuffer()
        try:
            if runs is None:
                body.write_u8(_WHOLE)
                coll.save_contents(block)
            else:
                body.write_u8(_RUNS)
                body.write_u32(len(runs))
                for first, n in runs:
                    body.write(_RUN_HEADER.pack(first, n))
                    coll.save_contents(_unit_block(block, info, first, n))
        except DeltaDefer:
            out.write_u8(_DEFERRED)
            deferred.append(block.logical)
        else:
            out.write(body.getvalue())
            shipped.append(block.logical)
    stats = coll.finish()
    stats.wire_bytes = out.nbytes
    return RoundResult(out.getvalue(), shipped, deferred, stats)


def apply_round(process, payload, expected_round: int):
    """Apply one delta round to the destination scratch process.

    Returns the :class:`~repro.msr.restore.RestoreStats` of the round.
    Raises :class:`~repro.msr.restore.RestoreError` on any structural
    disagreement (wrong round number, REF to an unknown block, freed
    logical the scratch does not hold, a run outside its block) — the
    engine maps that to its retryable error family exactly like a
    full-stream restore failure.  However the round ends, the scratch's
    heap ledger and its MSRLT agree.
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
    # carved as a restoration walk carves, and like a walk's registered
    # in one go whether the section is read to its end or not
    new: dict[tuple, MemoryBlock] = {}
    try:
        for _ in range(n_new):
            logical = read_logical(buf)
            type_id = buf.read_u16()
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
                raise RestoreError(
                    f"round registration for {logical}: a round registers heap "
                    f"and global blocks, not kind {logical[0]}"
                )
    finally:
        msrlt.register_heap_bulk(list(new.values()))
    rest = DeltaRestorer(process, buf)
    rest.stats.n_heap_allocs = len(new)
    held = rest._mapping
    n_blocks = buf.read_u32()
    for _ in range(n_blocks):
        logical = read_logical(buf)
        state = buf.read_u8()
        if state == _DEFERRED:
            continue  # arrives in the stop-and-copy stream
        block = held.get(logical)
        if block is None:
            raise RestoreError(f"delta contents for unknown block {logical}")
        if state == _WHOLE:
            rest.restore_contents(block)
        elif state == _RUNS:
            if logical in new:
                raise RestoreError(
                    f"runs for {logical}, which this very round registered "
                    f"(a new block ships whole)"
                )
            _restore_runs(rest, block)
        else:
            raise RestoreError(f"bad delta block state {state} for {logical}")
    if not buf.at_end():
        raise RestoreError(f"{buf.remaining} trailing bytes in delta round")
    return rest.stats


def _restore_runs(rest: DeltaRestorer, block: MemoryBlock) -> None:
    """The body of a block entry in run form."""
    buf = rest.buf
    n_runs = buf.read_u32()
    # nothing is looped over that the payload cannot hold
    if n_runs == 0 or not buf.holds(n_runs * _RUN_HEADER.size):
        raise RestoreError(
            f"{n_runs} runs claimed for {block.logical}: a block in run form "
            f"has at least one, and the payload ends before that many could"
        )
    info = rest.ti.info_for(block.elem_type)
    total = info.units_in(block.count)
    end = 0
    for _ in range(n_runs):
        first, n = buf.unpack(_RUN_HEADER)
        if n == 0 or first < end or first + n > total:
            raise RestoreError(
                f"run of {n} units at unit {first} of {block.logical} "
                f"({total} units, previous run ended at {end}): runs are not "
                f"empty, ascend without overlap and stay inside their block"
            )
        end = first + n
        rest.restore_contents(_unit_block(block, info, first, n))
