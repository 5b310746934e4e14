"""Data restoration: ``Restore_pointer`` and ``Restore_variable``.

Paper §3.1: "At the destination machine, the function Restore_pointer is
called recursively to rebuild memory blocks in memory space from the
output of Save_pointer. … The functions consult the MSRLT data structures
for appropriate memory locations and restore the memory block contents
there."

The restorer reads records sequentially (which *is* the source's DFS
order), maintains the source-logical-id → destination-block mapping, and
returns destination machine addresses for every pointer — the address
translation the MSRLT exists for.  Global and stack blocks map onto the
blocks the destination process already registered (same program, same
logical ids); heap blocks are allocated on demand — this asymmetry is why
restoration is O(n) in the number of blocks where collection's search is
O(n log n) (§4.2, visible in Figure 2(b)).

Allocating on demand is a *carve* (``Memory.heap_carve``: the address
``malloc`` would assign, no window yet) and a ``MemoryBlock`` the pass
builds itself and keeps on a pending list; a walk's pending blocks enter
the MSRLT in one merge when it returns or unwinds.  Nothing searches the
destination table by address meanwhile — every translation goes through
the mapping — so the table only has to be whole between walks, and the
heap ledger and the table agree however a walk ends.

Like the collector's, the walk is one loop over an explicit work stack
(:meth:`Restorer._drive`), not the paper's recursion: a ``BLOCK`` record
met while a block's cells are being filled suspends that block as a
*frame*, and the address the finished record denotes is handed to the
frame beneath it.  Records are consumed in stream order either way; the
heap's depth costs list entries, not Python frames.  The walk reads
through a cursor of its own over the payload
(:class:`~repro.arch.buffers.ReadBuffer` has the protocol), so a record
is one ``unpack_from`` and a restored tree or list node costs two Python
calls — its carve and its ``MemoryBlock``.

One restorer reads every pass.  A pre-copy pass after the snapshot is
born with ``held`` — what the scratch process already holds — as its
mapping: a ``REF`` to a held block resolves, a ``BLOCK`` record for one
restores in place, and the tail section (:mod:`repro.msr.wire`) lands
what the globals do not reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.arch.buffers import ReadBuffer
from repro.msr.graphplan import ChainBackoff
from repro.msr.msrlt import BlockKind, MemoryBlock
from repro.msr.ti import TypeInfo
from repro.msr.wire import (
    LEAD_COUNT,
    LEAD_FLAT,
    LEAD_ORDINAL,
    RECORDS,
    RUN_HEADER,
    TAG_REF,
    TAIL_FREED,
    TAIL_ROOT,
    TAIL_RUNS,
    lead_fault,
    read_logical,
    unit_block,
)
from repro.obs.attribution import block_class_of

__all__ = ["RestoreStats", "Restorer", "Restore_pointer", "Restore_variable"]

_STACK = BlockKind.STACK
_HEAP = BlockKind.HEAP
#: every state has one byte image: a field holding its constant is left out
_NOT_CANONICAL = "record for {} spells out {}: the canonical form leaves that field out"
#: a root (a global, a live local) is its whole block, never a cell inside
_ROOT_ORDINAL = "root record for {} carries ordinal {}: a root names its block's start"


class RestoreError(Exception):
    """Malformed or inconsistent migration payload."""


@dataclass(slots=True)
class RestoreStats:
    """Accounting for one restoration run."""

    n_blocks: int = 0
    n_refs: int = 0
    n_nulls: int = 0
    n_heap_allocs: int = 0
    data_bytes: int = 0  # destination-arch bytes written


class Restorer:
    """One data-restoration pass into a destination process.

    A pre-copy pass after the snapshot is born with *held* —
    ``run_precopy``'s ledger of what the scratch holds, handed over, not
    copied — as its mapping, and what lands or is freed keeps the
    ledger.  A ``BLOCK`` record for a held block restores in place, once
    per pass."""

    def __init__(self, process, buf: ReadBuffer, held: Optional[dict] = None) -> None:
        self.process = process
        self.memory = process.memory
        self.msrlt = process.msrlt
        self.ti = process.ti
        self.buf = buf
        #: source logical id -> destination block (the MSRLT update)
        self._mapping: dict[tuple, MemoryBlock] = {} if held is None else held
        #: with *held*: the ids that landed in this pass, so a held
        #: block takes one ``BLOCK`` record (``None``: all of the mapping)
        self._landed: Optional[set] = None if held is None else set()
        self.stats = RestoreStats()
        # attribution is resolved ONCE per pass; when off (None) every
        # per-block hook below is a single `is not None` test
        self._prof = obs.current_attribution()
        #: the oracle switch, read once per pass: every block's compiled
        #: plan, or every block's per-cell reference
        self._plan_for = (
            self.ti.plan_for if self.ti.plans_enabled else self.ti.reference_for
        )
        #: wire type id -> :meth:`_type`'s answer, filled as types are met
        self._types: dict[int, tuple] = {}
        #: when chain tail slots are offered to their ChainPlan
        self.chain_backoff = ChainBackoff()
        #: heap blocks carved by the walk under way, not yet in the MSRLT
        self._pending: list[MemoryBlock] = []
        if held is None:
            # a pass born with held blocks lands on the windows the
            # snapshot restore materialized: walking the whole table
            # again would cost more than the few blocks it touches
            self._prefault_registered()

    def _prefault_registered(self) -> None:
        """Materialize the windows spanning the destination's registered
        blocks (globals + the resumed stack) before the pass.

        Every contents write below then splices into an existing window;
        without this, a multi-MB restore is dominated by bytearray
        realloc+copy inside the window *growth* paths (the allocator
        rarely gets an in-place resize for windows that size).  Heap
        blocks are allocated on demand during the pass and excluded —
        their windows grow with the usual slack amortization.
        """
        spans: dict[str, tuple] = {}
        for block in self.msrlt.sorted_index[1]:
            seg = self.memory.segment_of(block.addr)
            lo, hi = spans.get(seg.name, (block.addr, block.end))
            spans[seg.name] = (min(lo, block.addr), max(hi, block.end))
        for lo, hi in spans.values():
            self.memory.segment_of(lo).ensure(lo, hi - lo)

    # -- public entry points (paper interface names) ------------------------------------

    def restore_variable(self, block: MemoryBlock) -> None:
        """``Restore_variable(&var)`` — fill the variable's own block."""
        self._drive(expected=block)

    def restore_pointer(self, expected: MemoryBlock | None = None) -> int:
        """``Restore_pointer()`` — read one record, rebuild its target if
        needed, and return the *destination* address it denotes."""
        return self._drive(expected=expected)

    def restore_contents(self, block: MemoryBlock) -> None:
        """Mirror of :meth:`Collector.save_contents`: read contents into
        *block*, which the caller identified."""
        self._drive(contents_of=block)

    def restore_tail(self) -> None:
        """Mirror of :meth:`Collector.save_tail`: the tail section's
        markers, to the end of the payload.  A pass born without held
        blocks reads a plain stream, whose tail is empty: its mapping is
        only what the pass itself restored, which no marker may name."""
        buf = self.buf
        landed = self._landed
        if landed is None:
            if not buf.at_end():
                raise RestoreError(f"{buf.remaining} trailing bytes in migration payload")
            return
        held = self._mapping
        while not buf.at_end():
            marker = buf.read_u8()
            if marker == TAIL_ROOT:
                self.restore_pointer()
            elif marker == TAIL_RUNS:
                logical = read_logical(buf)
                block = held.get(logical)
                if block is None:
                    raise RestoreError(
                        f"runs for {logical}, a block the destination does not hold"
                    )
                self._restore_runs(block)
            elif marker == TAIL_FREED:
                logical = read_logical(buf)
                if logical[0] != BlockKind.HEAP or logical not in held:
                    raise RestoreError(
                        f"freed marker for {logical}, not a heap block the destination holds"
                    )
                if logical in landed:
                    raise RestoreError(
                        f"freed marker for {logical}, a block restored in this pass"
                    )
                block = held.pop(logical)
                self.msrlt.unregister(block.addr)
                self.memory.heap_free(block.addr)
            else:
                raise RestoreError(f"bad tail marker {marker}")

    def _restore_runs(self, block: MemoryBlock) -> None:
        """The body of a runs marker, after its logical."""
        buf = self.buf
        n_runs = buf.read_u32()
        # nothing is looped over that the payload cannot hold
        if n_runs == 0 or not buf.holds(n_runs * RUN_HEADER.size):
            raise RestoreError(
                f"{n_runs} runs claimed for {block.logical}: a runs marker "
                f"has at least one, and the payload ends before that many could"
            )
        info = self.ti.info_for(block.elem_type)
        total = info.units_in(block.count)
        end = 0
        for _ in range(n_runs):
            first, n = buf.unpack(RUN_HEADER)
            if n == 0 or first < end or first + n > total:
                raise RestoreError(
                    f"run of {n} units at unit {first} of {block.logical} "
                    f"({total} units, previous run ended at {end}): runs are not "
                    f"empty, ascend without overlap and stay inside their block"
                )
            end = first + n
            self.restore_contents(unit_block(block, info, first, n))

    # -- block resolution ------------------------------------------------------------------

    def _type(self, type_id: int, logical: tuple) -> tuple:
        """What a ``BLOCK`` record naming *type_id* is restored with —
        ``(info, plan, its restore slots, the lead's flat bit)`` — looked
        up on the type's first record of the pass and kept for the rest."""
        try:
            info = self.ti.info(type_id)
        except LookupError:
            raise RestoreError(
                f"record for {logical} names unknown type id {type_id}"
            ) from None
        plan = self._plan_for(info)
        entry = self._types[type_id] = (
            info,
            plan,
            None if plan is None else plan.restore_slots,
            0 if info.flat_kind is None else LEAD_FLAT,
        )
        return entry

    def _resolve_block(self, logical: tuple, info: TypeInfo, count: int) -> MemoryBlock:
        """The destination block a ``BLOCK`` record for *logical* fills
        when the walk does not carve one (it carves a heap block new to
        the pass itself): a held block, restored in place, or the
        global's or local's block the destination registered under the
        same machine-independent id.  A second record for a block that
        already landed in this pass is refused here."""
        block = self._mapping.get(logical)
        landed = self._landed
        if block is None:
            block, whose = self.msrlt.lookup_logical(logical), "the destination block"
        elif landed is None or logical in landed or not self.msrlt.has_logical(logical):
            # it landed in this pass (a block this walk carved is not
            # registered until the walk ends)
            raise RestoreError(f"second BLOCK record for {logical}")
        else:
            whose = "the pre-copied block"
        self._check_declared(logical, info, count, block, whose)
        if landed is not None:
            landed.add(logical)
        return block

    def _check_declared(self, logical, info, count, block, whose: str) -> None:
        """Refuse a record for *block* whose type or count is not the
        block's own: contents of another type written over it would
        restore silently wrong even at the same size."""
        declared = self.ti.info_for(block.elem_type)
        if info is not declared or count != block.count:
            raise RestoreError(
                f"record for {logical} names {count} x {info.label}, but "
                f"{whose} is {block.count} x {declared.label}"
            )

    def _byte_of(self, block: MemoryBlock, ordinal: int) -> int:
        """Byte offset of cell *ordinal* (nonzero) inside *block*."""
        info = self.ti.info_for(block.elem_type)
        if ordinal > info.cells_in(block.count):
            raise RestoreError(
                f"ordinal {ordinal} is outside {block.logical} "
                f"({info.cells_in(block.count)} cells)"
            )
        return info.ordinal_to_byte(ordinal, block.count)

    # -- traversal ----------------------------------------------------------------------------

    def _drive(self, expected=None, contents_of=None) -> int:
        """The depth-first walk: read one record — *expected*'s, when a
        block is given — with everything nested in it, and return the
        destination address it denotes.  With *contents_of*, read that
        block's contents instead (no record header).

        Each turn of the loop reads one record, told by its lead byte —
        which also says how wide the record is, so it is one
        ``unpack_from`` whatever its shape: ``NULL`` and ``REF`` denote an
        address at once; a ``BLOCK`` resolves its destination block,
        registers the mapping BEFORE the contents (cycles arrive as REFs)
        and either fills it at once or opens a frame.  Then the address
        is handed to the open frame, which advances to its next pointer
        cell; a finished frame hands its own block's address to the frame
        beneath.  The open frame lives in locals; ``stack`` holds the
        suspended ones.  A frame is either a record plan's walk
        (``slots``: the driver decodes the scalar runs, collects a unit's
        cell values and stores them in one go) or a plan's own generator
        (``walker``: it yields per record it needs and is sent the
        address).

        The walk reads through a cursor of its own over the payload
        (``view``, ``pos``; :class:`~repro.arch.buffers.ReadBuffer`
        documents the protocol): records and scalar runs are unpacked in
        place, the buffer is asked only where a read would pass the
        payload's end (an underrun), and the cursor is handed back
        around every call that reads the buffer itself.  A heap ``BLOCK`` new to the pass is carved here, not in
        :meth:`_resolve_block`, so that a tree or list node costs two
        calls: ``heap_carve`` and its ``MemoryBlock``.
        """
        buf = self.buf
        need = buf.need
        view, pos = buf.window, buf.cursor
        end = len(view)
        memory = self.memory
        heap = memory.heap_seg
        carve = memory.heap_carve
        barrier_free = memory.dirty is None
        mapping = self._mapping
        types = self._types
        pending = self._pending
        prof = self._prof
        open_frames = 0 if prof is None else prof.depth()
        backoff = self.chain_backoff
        skip = backoff.skip  # tail slots left to pass over unoffered
        n_blocks = n_refs = n_nulls = n_allocs = data_bytes = 0
        stack = []
        # the open frame; `plan is None` marks the bottom of the stack.
        # `result` is the address its record denotes, `patch` the memory
        # cell (not `values`) the next address belongs in, `into` the
        # plan's in-place unit store (None: `plan.store`)
        walker = plan = opened = slots = values = into = None
        result = at = addr = units = patch = 0
        try:
            while True:
                # -- one record: an address, or a block to fill
                if contents_of is not None:
                    block, contents_of = contents_of, None
                    info = self.ti.info_for(block.elem_type)
                    _, new, steps, _ = (
                        types.get(info.type_id) or self._type(info.type_id, block.logical)
                    )
                    headed, address = False, block.addr
                else:
                    if pos == end:
                        need(pos, 1)
                    lead = view[pos]
                    if not lead:
                        pos += 1
                        n_nulls += 1
                        block, address = None, 0
                    else:
                        shape = RECORDS[lead]
                        if shape is None:
                            raise RestoreError(lead_fault(lead))
                        size = shape.size
                        if pos + size > end:
                            need(pos, size)
                        fields = shape.unpack_from(view, pos)
                        pos += size
                        kind = lead >> 2 & 3  # wire.lead_kind, inlined
                        if lead & 3 == TAG_REF:
                            if kind == _STACK:
                                _, la, lb, ordinal = fields
                            else:
                                (_, la, ordinal), lb = fields, 0
                            block = mapping.get((kind, la, lb))
                            if block is None:
                                raise RestoreError(
                                    f"REF to unseen block {(kind, la, lb)}"
                                )
                            if expected is not None:
                                if block.logical != expected.logical:
                                    raise RestoreError(
                                        f"REF to {(kind, la, lb)} arrived where "
                                        f"{expected.logical} was expected"
                                    )
                                if ordinal:
                                    raise RestoreError(
                                        _ROOT_ORDINAL.format(block.logical, ordinal)
                                    )
                                expected = None
                            n_refs += 1
                            address = block.addr
                            if ordinal:
                                address += self._byte_of(block, ordinal)
                            block = None
                        else:
                            # a BLOCK header: the fields its lead says follow
                            if kind == _STACK:
                                logical, i = (kind, fields[1], fields[2]), 3
                            else:
                                logical, i = (kind, fields[1], 0), 2
                            type_id = fields[i]
                            count, ordinal = 1, 0
                            if lead & LEAD_COUNT:
                                i += 1
                                count = fields[i]
                                if count == 1:
                                    raise RestoreError(
                                        _NOT_CANONICAL.format(logical, "count 1")
                                    )
                            if lead & LEAD_ORDINAL:
                                ordinal = fields[i + 1]
                                if not ordinal:
                                    raise RestoreError(
                                        _NOT_CANONICAL.format(logical, "ordinal 0")
                                    )
                            if expected is not None:
                                if logical != expected.logical:
                                    raise RestoreError(
                                        f"record for {logical} arrived where "
                                        f"{expected.logical} was expected"
                                    )
                                if ordinal:
                                    raise RestoreError(
                                        _ROOT_ORDINAL.format(logical, ordinal)
                                    )
                                expected = None
                            info, new, steps, flat = (
                                types.get(type_id) or self._type(type_id, logical)
                            )
                            if (lead & LEAD_FLAT) != flat:
                                # flatness is structural (same answer on
                                # every architecture), so a disagreeing
                                # flag is a corrupt or mismatched payload
                                raise RestoreError(
                                    f"flat flag disagrees with type {info.label}"
                                )
                            if kind == _HEAP and logical not in mapping:
                                # carved where malloc would put it — and
                                # nothing is, for contents the payload
                                # cannot hold
                                if not count or count * info.wire_floor > end - pos:
                                    raise RestoreError(
                                        f"record for {logical} claims {count} x "
                                        f"{info.label}: no block is empty, and the "
                                        f"payload ends before the contents of this "
                                        f"one could"
                                    )
                                nbytes = info.size * count
                                block = MemoryBlock(
                                    carve(nbytes), info.ctype, count, nbytes, logical
                                )
                                pending.append(block)
                                n_allocs += 1
                            else:
                                buf.cursor = pos
                                block = self._resolve_block(logical, info, count)
                                pos = buf.cursor
                            mapping[logical] = block
                            headed, address = True, block.addr
                            if ordinal:
                                address += self._byte_of(block, ordinal)
                            if prof is not None:
                                # a restore frame opens after the header
                                buf.cursor = pos
                                prof.enter_block(
                                    "restore", info.label, block_class_of(logical),
                                    buf.position,
                                )
                if block is not None:
                    n_blocks += 1
                    data_bytes += block.size
                    # its contents: read at once, or a new frame
                    if steps is not None:
                        records, n = None, block.count * info.repeat
                    else:
                        n = 0
                        records = None
                        if new is not None:
                            buf.cursor = pos
                            records = new.restore(self, block, info)
                            pos = buf.cursor
                    if n or records is not None:
                        stack.append(
                            (walker, plan, opened, result, slots, at, values,
                             addr, units, patch, into)
                        )
                        walker, plan, slots, units = records, new, steps, n
                        opened = block if headed else None
                        result, address, patch = address, None, 0
                        if n:
                            addr = block.addr
                            values = [0] * new.cell_count
                            at = 0
                            into = new.store_into if barrier_free else None
                    elif headed and prof is not None:
                        buf.cursor = pos
                        prof.exit_block(
                            buf.position,
                            "percell" if new is None else new.engagement,
                            cells=info.cells_in(block.count),
                        )
                # -- hand the address to the open frame and advance it to
                # its next pointer (a frame just opened has none to take)
                while True:
                    if walker is not None:
                        buf.cursor = pos
                        try:
                            walker.send(address)
                        except StopIteration:
                            pass
                        else:
                            break
                        finally:
                            pos = buf.cursor
                    elif units:
                        if address is not None:
                            if patch:
                                memory.store("ptr", patch, address)
                                patch = 0
                            else:
                                values[slots[at - 1][3]] = address
                            address = None
                        run, a, b, p, chain = slots[at]
                        at += 1
                        if run is not None:
                            size = run.size
                            if pos + size > end:
                                need(pos, size)
                            values[a:b] = run.unpack_from(view, pos)
                            pos += size
                        if p >= 0:
                            if chain is not None:
                                if skip:
                                    skip -= 1
                                else:
                                    buf.cursor = pos
                                    batch = chain.restore_batch(self)
                                    pos = buf.cursor
                                    if batch is not None:
                                        # the batch is this pointer's
                                        # target; the record after it is
                                        # its last node's tail
                                        values[p], patch = batch
                                    else:
                                        skip = backoff.skip
                            break
                        # the unit is whole: packed in place when the heap
                        # window already covers it, else through the plan
                        off = addr - heap.window_start
                        window = heap.buf
                        if into is not None and 0 <= off <= len(window) - plan.unit_size:
                            into(window, off, *values)
                        else:
                            plan.store(memory, addr, values)
                        units -= 1
                        if units:
                            addr += plan.unit_size
                            values = [0] * plan.cell_count
                            at = 0
                            continue
                    elif plan is None:
                        buf.cursor = pos
                        return address
                    # the open frame is finished: its record's address
                    # goes to the frame beneath
                    if opened is not None and prof is not None:
                        buf.cursor = pos
                        prof.exit_block(
                            buf.position, plan.engagement,
                            cells=self.ti.info_for(opened.elem_type).cells_in(opened.count),
                        )
                    address = result
                    (walker, plan, opened, result, slots, at, values,
                     addr, units, patch, into) = stack.pop()
        except BaseException:
            # the cursor is the walk's own unless a call that reads the
            # buffer raised: then the buffer's is ahead
            if pos > buf.cursor:
                buf.cursor = pos
            if prof is not None:
                prof.unwind(open_frames, buf.position)
            raise
        finally:
            backoff.skip = skip
            stats = self.stats
            stats.n_blocks += n_blocks
            stats.n_refs += n_refs
            stats.n_nulls += n_nulls
            stats.n_heap_allocs += n_allocs
            stats.data_bytes += data_bytes
            if pending:
                # the table is whole again before anyone can search it
                self._pending = []
                self.msrlt.register_heap_bulk(pending)
                if self._landed is not None:
                    self._landed.update([block.logical for block in pending])

# -- paper-style free-function interface ---------------------------------------------


def Restore_variable(restorer: Restorer, block: MemoryBlock) -> None:
    """Paper-style alias for :meth:`Restorer.restore_variable`."""
    restorer.restore_variable(block)


def Restore_pointer(restorer: Restorer) -> int:
    """Paper-style alias for :meth:`Restorer.restore_pointer`."""
    return restorer.restore_pointer()
