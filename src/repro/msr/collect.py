"""Data collection: ``Save_pointer`` and ``Save_variable``.

Paper §3.1: "Save_pointer initiates a depth-first traversal through
connected components of the MSR graph.  It examines memory blocks that
are referred to by pointers and then invokes type-specific saving
functions to save their contents.  During the traversal, visited memory
blocks are marked so that they are not saved again."

The collector walks live pointers depth-first; the first visit of a
block emits a ``BLOCK`` record (header, machine-independent id — a heap
serial, as its step from the last, only where the walk's stride does not
imply it —, the type unless the pointer's declared type implies it, then
contents converted by the type's plan), every later reference emits only
a ``REF``.  A pointer inside a block's contents is followed before the
cells after it are written, which reproduces exactly the traversal
order the paper's §3.2 example walks through (v11 → e8 → v6 → e6 → v10,
backtrack …).

The paper's ``Save_pointer`` is recursive.  Here the walk is one loop
over an explicit work stack (:meth:`Collector._drive`): following a
pointer into an unvisited block suspends the block being written as a
*frame* — where it stands among its units and pointer cells — and
finishing a block resumes the frame beneath it.  A frame is the
continuation the recursion kept on the interpreter stack, so the records
leave in the identical order, and the depth of the heap costs list
entries, not Python frames.

One collector writes every pass: a plain migration, the pre-copy
snapshot, each delta round and the stop-and-copy stream.  A pass after
the snapshot is born with ``run_precopy``'s ledgers
(:mod:`repro.migration.precopy`): a block the destination already holds
byte-fresh is a visited block, and the tail section
(:mod:`repro.msr.wire`) carries what the globals do not reach.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.arch.buffers import WriteBuffer
from repro.msr.graphplan import ChainBackoff
from repro.msr.msrlt import BlockKind, MemoryBlock, MSRLTError
from repro.msr.wire import (
    ESCAPED,
    HEAP_UNIT,
    LEAD_COUNT,
    LEAD_ORDINAL,
    LEAD_SERIAL,
    LEAD_TYPE,
    RECORDS,
    RUN_HEADER,
    TAG_BLOCK,
    TAG_NULL,
    TAG_REF,
    TAIL_FREED,
    TAIL_ROOT,
    TAIL_RUNS,
    unit_block,
    write_logical,
)
from repro.obs.attribution import block_class_of

__all__ = [
    "CollectStats", "Collector", "DeltaDefer", "Save_pointer", "Save_variable", "unit_runs",
]

_NULL_RECORD = bytes([TAG_NULL])
#: the header of a heap unit of its implied type: the lead alone where
#: the walk implies its serial, else lead and step — or lead, the escape
#: and the serial, where the step does not fit an i16
_HEAP_UNIT_RECORD = bytes([HEAP_UNIT])
_SERIAL_UNIT = HEAP_UNIT | LEAD_SERIAL
_PACK_STEP = RECORDS[_SERIAL_UNIT].pack
_PACK_ESCAPED = ESCAPED[_SERIAL_UNIT].pack
_STACK = BlockKind.STACK
_HEAP = BlockKind.HEAP


@dataclass(slots=True)
class CollectStats:
    """Accounting for one collection run (feeds Table 1 / Figure 2)."""

    n_blocks: int = 0
    #: never incremented: kept for readers of the field (ROADMAP 5-I(b))
    n_flat_blocks: int = 0
    #: pointer-free blocks: converted by a CastPlan or copied ``raw``
    n_codec_blocks: int = 0
    #: blocks saved through a PtrArrayPlan or RecordPlan, plus every
    #: block a ChainPlan batch emitted
    n_plan_blocks: int = 0
    data_bytes: int = 0  # Σ Dᵢ over saved blocks (source-arch bytes)
    wire_bytes: int = 0


class DeltaDefer(Exception):
    """A round's walk met a pointer with no shippable target (dangling,
    or aimed at the stack, which is unregistered while the source runs):
    the marker it was writing waits for a later pass."""


class Collector:
    """One data-collection pass over a process's live state.

    A pre-copy pass after the snapshot is born with ``run_precopy``'s
    ledgers of the source's live non-stack blocks, handed over, not
    copied: *fresh* — the destination's copy is byte-identical — IS the
    visited set from the first record on, and *stale* is every other
    one: the tail section's roots.  With *defer* (a round) a marker whose
    walk meets a pointer without a target is cut back out
    (:class:`DeltaDefer`, collected in :attr:`deferred`) and *stale*
    loses what shipped; without it such a pointer is the ordinary
    collection error.  Born with neither ledger, the pass's tail section
    is empty.
    """

    def __init__(
        self,
        process,
        buf: WriteBuffer,
        fresh: Optional[set] = None,
        stale: Optional[set] = None,
        defer: bool = False,
    ) -> None:
        self.process = process
        self.memory = process.memory
        self.msrlt = process.msrlt
        self.ti = process.ti
        self.buf = buf
        self._visited: set[tuple] = set() if fresh is None else fresh
        self._stale = stale
        #: the blocks whose markers a round cut back out; a walk that
        #: reaches one defers at once (``None``: not a round)
        self.deferred: Optional[set] = set() if defer else None
        #: what a round visited first, in order: a deferred marker takes
        #: its share back out of ``fresh``
        self._visits: list = []
        self.stats = CollectStats()
        #: the last heap serial written and the step to it from the one
        #: before (:mod:`repro.msr.wire`): the serial a heap BLOCK leaves
        #: out is ``_last + _stride``
        self._last, self._stride = -1, 1
        # attribution is resolved ONCE per pass; when off (None) every
        # per-block hook below is a single `is not None` test
        self._prof = obs.current_attribution()
        #: the oracle switch, read once per pass: every block's compiled
        #: plan, or every block's per-cell reference
        self._plans_on = self.ti.plans_enabled
        self._plan_for = self.ti.plan_for if self._plans_on else self.ti.reference_for
        #: id(ctype) -> :meth:`_type`'s answer, filled as types are met
        self._types: dict[int, tuple] = {}
        #: when chain tail slots are offered to their ChainPlan
        self.chain_backoff = ChainBackoff()
        # a pass born with the ledgers (a round, the final pass) ships
        # what the slices changed — a few new nodes each — which the
        # driver walks for less than a chain probe costs: it offers no
        # tail slot
        if stale is not None:
            self.chain_backoff.skip = sys.maxsize

    # -- public entry points (paper interface names) --------------------------------

    def save_variable(self, block: MemoryBlock) -> None:
        """``Save_variable(&var)`` — collect the variable's own block, a
        root: its declared type is implied, so the record leaves it out."""
        self._drive(block, implied=self.ti.info_for(block.elem_type).type_id)

    def save_pointer(self, value: int) -> None:
        """``Save_pointer(p)`` — collect the target of pointer value *p*,
        whose type nothing implies: a ``BLOCK`` record carries it."""
        self._drive(None, value)

    def save_contents(self, block: MemoryBlock) -> None:
        """What a ``BLOCK`` record carries after its header — the
        contents — for a block whose identity travels by other means (a
        runs marker's units)."""
        self._drive(block, header=False)

    def save_tail(self, freed=(), written=()) -> None:
        """The tail section: a freed marker per heap logical in *freed*,
        runs for the blocks of *written* — ``(block, byte spans the slice
        wrote)`` — that take the run form, and a root per stale block
        nothing reached.  Behind a clean block nothing is walked, so a
        stale block only clean ones point to (or none: leaked blocks
        ship too) is a root of its own."""
        buf = self.buf
        visited = self._visited
        for logical in freed:
            buf.write_u8(TAIL_FREED)
            write_logical(buf, logical)
        info_for = self.ti.info_for
        patches = []
        for block, spans in written:
            info = info_for(block.elem_type)
            runs = unit_runs(info, block.count, spans)
            if runs is not None:
                visited.add(block.logical)
                patches.append((block, info, runs))
        for block, info, runs in patches:
            self._ship(block.logical, self._save_runs, block, info, runs)
        stale = self._stale
        if not stale:
            return
        lookup = self.msrlt.lookup_logical
        deferred = () if self.deferred is None else self.deferred
        for logical in sorted(stale):
            # a root, or an earlier marker, may lead here
            if logical not in visited and logical not in deferred:
                self._ship(logical, self._save_root, lookup(logical))
        if self.deferred is not None:
            stale.difference_update([logical for logical in stale if logical in visited])

    # -- the tail section's markers -------------------------------------------------

    def _ship(self, logical: tuple, save, *args) -> None:
        """One marker for *logical*'s block.  In a round, a marker whose
        walk defers is cut back out with everything it visited first, and
        the serial stride with its bytes."""
        if self.deferred is None:
            save(*args)
            return
        out, visits = self.buf.storage, self._visits
        at, seen = len(out), len(visits)
        serial = self._last, self._stride
        try:
            save(*args)
        except DeltaDefer:
            del out[at:]
            self._last, self._stride = serial
            self._visited.difference_update(visits[seen:])
            self._visited.discard(logical)
            del visits[seen:]
            self.deferred.add(logical)

    def _save_root(self, block: MemoryBlock) -> None:
        # the restorer reads a tail root with nothing to imply its type
        self.buf.write_u8(TAIL_ROOT)
        self._drive(block)

    def _save_runs(self, block: MemoryBlock, info, runs) -> None:
        buf = self.buf
        buf.write_u8(TAIL_RUNS)
        write_logical(buf, block.logical)
        buf.write_u32(len(runs))
        for first, n in runs:
            buf.write(RUN_HEADER.pack(first, n))
            self.save_contents(unit_block(block, info, first, n))

    # -- visits ------------------------------------------------------------------------

    def _journal_visit(self, logical: tuple) -> None:
        """A round's first visit: a block a marker was cut back for
        defers the walk at once, and the rest are journalled."""
        if logical in self.deferred:
            raise DeltaDefer(f"{logical} waits for a later pass")
        self._visits.append(logical)
        self._visited.add(logical)

    def _first_visits(self, logicals: list) -> None:
        """The first visits of one chain batch's nodes."""
        if self.deferred is not None:
            self._visits.extend(logicals)
        self._visited.update(logicals)

    def _dangling(self, value: int) -> None:
        if self.deferred is not None:
            raise DeltaDefer(f"pointer {value:#x} has no shippable target") from None
        raise MSRLTError(
            f"pointer {value:#x} does not refer to any live memory block; "
            "the program stored a dangling or fabricated address, which is "
            "migration-unsafe"
        )

    # -- traversal ---------------------------------------------------------------------

    def _type(self, ctype) -> tuple:
        """What a block of *ctype* is saved with — ``(ctype, info, plan,
        its save slots, its unit loader, whether the driver copies it)`` —
        looked up on the type's first block of the pass and kept for the
        rest.  The entry holds the type object, so the id it is keyed on
        cannot be recycled."""
        info = self.ti.info_for(ctype)
        plan = self._plan_for(info)
        slots = None if plan is None else plan.save_slots
        entry = self._types[id(ctype)] = (
            ctype, info, plan, slots, None if slots is None else plan.load_from,
            plan is not None and plan.raw,
        )
        return entry

    def _drive(self, block, value=None, header=True, implied=None) -> None:
        """The depth-first walk: write the record of one pointer — to
        *block*, or, with no block given, of pointer *value* — and of
        everything first reached through it.  *implied* is the type id
        the first record's context implies (``None``: none); a record
        reached through a pointer cell takes its slot's (or its pointer
        array's) implied id, and a ``BLOCK`` carries its type only when
        it is not that one.  A heap ``BLOCK`` carries its serial only
        when it is not the one the pass's ``(last, stride)`` implies, as
        the step from ``last`` (the escape and the serial where the step
        does not fit an i16); the pair lives in locals while the walk is
        under way and on the pass between walks and around a chain batch.

        Each turn of the loop handles one pointer: resolve it (``NULL``,
        a chain batch, a ``REF``, or a ``BLOCK`` record whose contents
        open a frame), then advance the open frame to its next pointer,
        closing finished frames on the way.  The open frame lives in
        locals; ``stack`` holds the suspended ones.  A frame is either a
        record plan's walk (``slots``: the driver loads a unit's cells,
        writes the scalar runs and takes the pointers in order) or a
        plan's own iterator of pointer values (``walker``).

        A tree or list node costs no Python-level call: the pointer is
        resolved by one ``bisect_right`` over the table's sorted arrays
        (``MSRLT.lookup_addr``, inlined, searches counted per walk), its
        type by the pass's own dict, the visit is the visited set's
        ``add``, a heap unit is one ``unpack_from`` on the heap window,
        and a NULL cell is written without leaving the unit.  Neither
        does a block whose plan is ``raw`` (its host image is its wire
        image): its bytes are copied out of the heap window as they are.
        """
        buf = self.buf
        out = buf.storage  # not detached while a walk is under way
        memory = self.memory
        heap = memory.heap_seg
        visited = self._visited
        # marked BEFORE the contents, so cycles degrade to REFs; only a
        # round journals its visits
        first_visit = visited.add if self.deferred is None else self._journal_visit
        msrlt = self.msrlt
        starts, blocks = msrlt.sorted_index  # the walk registers nothing
        types = self._types
        prof = self._prof
        backoff = self.chain_backoff
        skip = backoff.skip  # tail slots left to pass over unoffered
        n_blocks = n_searches = data_bytes = 0
        # the blocks a PtrArrayPlan or RecordPlan walked (n_plan_blocks)
        # and the pointer-free ones, cast or copied raw (n_codec_blocks)
        n_planned = n_codec = 0
        last, stride = self._last, self._stride
        stack = []
        # the open frame; `plan is None` marks the bottom of the stack.
        # `unpack` is the plan's one-call unit load (None: `plan.load`)
        walker = plan = opened = slots = values = unpack = None
        at = addr = units = 0
        chain = None  # the chain plan whose tail slot `value` sits in
        try:
            while True:
                # -- one pointer: NULL, a chain batch, REF, or the BLOCK
                # record of the block it is the first to reach
                off = 0
                if value is not None:
                    if value == 0:
                        out += _NULL_RECORD
                        block = None
                    else:
                        # MSRLT.lookup_addr, inlined
                        n_searches += 1
                        i = bisect_right(starts, value) - 1
                        if i < 0:
                            self._dangling(value)
                        block = blocks[i]
                        off = value - block.addr
                        if off > block.size:
                            self._dangling(value)
                        if chain is not None:
                            if skip:
                                skip -= 1
                            else:
                                self._last, self._stride = last, stride
                                value = chain.save_batch(self, block, off)
                                if value is not None:
                                    # a batch went out; its last node's tail
                                    # is the next record (maybe another batch)
                                    last = self._last
                                    continue
                                skip = backoff.skip
                if block is not None:
                    logical = block.logical
                    if header and logical in visited:
                        ordinal = 0
                        if off:
                            ctype = block.elem_type
                            info = (types.get(id(ctype)) or self._type(ctype))[1]
                            ordinal = info.byte_to_ordinal(off, block.count)
                        kind, la, lb = logical
                        lead = TAG_REF | kind << 2  # wire.lead_byte, inlined
                        if kind == _STACK:
                            out += RECORDS[lead].pack(lead, la, lb, ordinal)
                        else:
                            out += RECORDS[lead].pack(lead, la, ordinal)
                    else:
                        ctype = block.elem_type
                        _, info, new, steps, load, copy = (
                            types.get(id(ctype)) or self._type(ctype)
                        )
                        if header:
                            ordinal = info.byte_to_ordinal(off, block.count) if off else 0
                            first_visit(logical)
                            if prof is not None:
                                prof.enter_block(
                                    "collect", info.label, block_class_of(logical),
                                    len(out),
                                )
                            # the header: only the fields that do not
                            # hold their constant travel
                            kind, la, lb = logical
                            lead = TAG_BLOCK | kind << 2
                            count = block.count
                            if kind == _HEAP:
                                step = la - last
                                last = la
                                if (
                                    count == 1 and not ordinal
                                    and info.type_id == implied
                                ):
                                    # a list or tree node's header
                                    if step == stride:
                                        out += _HEAP_UNIT_RECORD
                                    else:
                                        stride = step
                                        try:
                                            out += _PACK_STEP(_SERIAL_UNIT, step)
                                        except struct.error:  # outside i16
                                            out += _PACK_ESCAPED(_SERIAL_UNIT, 0, la)
                                    fields = None
                                elif step != stride:
                                    stride = step
                                    lead |= LEAD_SERIAL
                                    fields = [step]
                                else:
                                    fields = []
                            else:
                                fields = [la, lb] if kind == _STACK else [la]
                            if fields is not None:
                                if info.type_id != implied:
                                    lead |= LEAD_TYPE
                                    fields.append(info.type_id)
                                if count != 1:
                                    lead |= LEAD_COUNT
                                    fields.append(count)
                                if ordinal:
                                    lead |= LEAD_ORDINAL
                                    fields.append(ordinal)
                                try:
                                    out += RECORDS[lead].pack(lead, *fields)
                                except struct.error:
                                    if not lead & LEAD_SERIAL:
                                        raise
                                    # a step outside i16: the escape 0
                                    # and the serial behind it
                                    fields[:1] = 0, la
                                    out += ESCAPED[lead].pack(lead, *fields)
                        n_blocks += 1
                        data_bytes += block.size
                        # its contents: copied, written at once, or a new
                        # frame
                        if steps is not None:
                            pointers, n = None, block.count * info.repeat
                        elif copy:
                            # out of the heap window when it covers them
                            pointers, n = None, 0
                            size = block.size
                            woff = block.addr - heap.window_start
                            window = heap.buf
                            if 0 <= woff <= len(window) - size:
                                out += memoryview(window)[woff : woff + size]
                            else:
                                out += memory.view(block.addr, size)
                            n_codec += 1
                        else:
                            n = 0
                            pointers = None
                            if new is not None:
                                pointers = new.save(self, block, info)
                                if pointers is None:  # a CastPlan wrote it all
                                    n_codec += 1
                        if n or pointers is not None:
                            n_planned += 1
                            stack.append(
                                (walker, plan, opened, slots, at, values, addr,
                                 units, unpack)
                            )
                            walker, plan, slots, units = pointers, new, steps, n
                            opened = block if header else None
                            if n:
                                addr = block.addr
                                at = 0
                                unpack = load
                                # the unit: unpacked in place when the heap
                                # window already covers it, else by the plan
                                woff = addr - heap.window_start
                                window = heap.buf
                                if load is not None and 0 <= woff <= len(window) - new.unit_size:
                                    values = load(window, woff)
                                else:
                                    values = new.load(memory, addr)
                        elif header and prof is not None:
                            prof.exit_block(len(out))
                        header = True
                # -- advance the open frame to its next pointer
                while True:
                    if walker is not None:
                        value = next(walker, None)
                        if value is not None:
                            chain = None
                            implied = plan.implied
                            break
                    elif units:
                        pack, a, b, p, chain, implied = slots[at]
                        at += 1
                        if pack is not None:
                            out += pack(*values[a:b])
                        if p >= 0:
                            value = values[p]
                            if value:
                                break
                            out += _NULL_RECORD
                            continue
                        units -= 1
                        if units:
                            addr += plan.unit_size
                            at = 0
                            woff = addr - heap.window_start
                            window = heap.buf
                            if unpack is not None and 0 <= woff <= len(window) - plan.unit_size:
                                values = unpack(window, woff)
                            else:
                                values = plan.load(memory, addr)
                            continue
                    elif plan is None:
                        stats = self.stats
                        stats.n_blocks += n_blocks
                        stats.data_bytes += data_bytes
                        if self._plans_on:
                            stats.n_plan_blocks += n_planned
                            stats.n_codec_blocks += n_codec
                        return
                    # the open frame is finished: resume the one beneath
                    if opened is not None and prof is not None:
                        prof.exit_block(len(out))
                    (walker, plan, opened, slots, at, values, addr,
                     units, unpack) = stack.pop()
        finally:
            backoff.skip = skip
            self._last, self._stride = last, stride
            msrlt.n_searches += n_searches

    # -- bookkeeping --------------------------------------------------------------------

    def finish(self) -> CollectStats:
        """Finalize statistics (call once after all saves)."""
        self.stats.wire_bytes = self.buf.nbytes
        if self._prof is not None:
            self._prof.note_payload(self.buf.nbytes)
        return self.stats


# -- paper-style free-function interface --------------------------------------------


def Save_variable(collector: Collector, block: MemoryBlock) -> None:
    """Paper-style alias for :meth:`Collector.save_variable`."""
    collector.save_variable(block)


def Save_pointer(collector: Collector, value: int) -> None:
    """Paper-style alias for :meth:`Collector.save_pointer`."""
    collector.save_pointer(value)


def unit_runs(info, count: int, spans) -> Optional[list[tuple[int, int]]]:
    """The unit runs ``[(first_unit, n_units), ...]`` covering the byte
    *spans* ``[(lo, hi), ...]`` (block-relative, ascending, disjoint)
    written into a block of *count* elements of *info*'s type — or
    ``None`` when the whole block is sure to be no larger: the run form
    spends 4 bytes on its count and 8 on each run's header where a whole
    block spends nothing, so it pays only when the units left out weigh
    more."""
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
    if 4 + RUN_HEADER.size * len(runs) > left_out * floor:
        return None
    return [(first, stop - first) for first, stop in runs]
