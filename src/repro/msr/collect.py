"""Data collection: ``Save_pointer`` and ``Save_variable``.

Paper §3.1: "Save_pointer initiates a depth-first traversal through
connected components of the MSR graph.  It examines memory blocks that
are referred to by pointers and then invokes type-specific saving
functions to save their contents.  During the traversal, visited memory
blocks are marked so that they are not saved again."

The collector walks live pointers depth-first; the first visit of a
block emits a ``BLOCK`` record (header, machine-independent id, type,
then contents converted by the type's plan), every later reference emits
only a ``REF``.  A pointer inside a block's contents is followed before
the cells after it are written, which reproduces exactly the traversal
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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro import obs
from repro.arch.buffers import WriteBuffer
from repro.msr.graphplan import ChainBackoff
from repro.msr.msrlt import BlockKind, MemoryBlock, MSRLTError
from repro.msr.wire import (
    LEAD_COUNT,
    LEAD_FLAT,
    LEAD_ORDINAL,
    RECORDS,
    TAG_BLOCK,
    TAG_NULL,
    TAG_REF,
)
from repro.obs.attribution import block_class_of

__all__ = ["CollectStats", "Collector", "Save_pointer", "Save_variable"]

_NULL_RECORD = bytes([TAG_NULL])
_STACK = BlockKind.STACK


@dataclass(slots=True)
class CollectStats:
    """Accounting for one collection run (feeds Table 1 / Figure 2)."""

    n_blocks: int = 0
    n_refs: int = 0
    n_nulls: int = 0
    #: flat blocks saved through the reference bulk encode (plans off)
    n_flat_blocks: int = 0
    #: blocks saved through a StructPlan
    n_codec_blocks: int = 0
    #: blocks saved through a FlatPlan, PtrArrayPlan or RecordPlan, plus
    #: every block a ChainPlan batch emitted
    n_plan_blocks: int = 0
    data_bytes: int = 0  # Σ Dᵢ over saved blocks (source-arch bytes)
    wire_bytes: int = 0


class Collector:
    """One data-collection pass over a process's live state."""

    def __init__(self, process, buf: WriteBuffer) -> None:
        self.process = process
        self.memory = process.memory
        self.msrlt = process.msrlt
        self.ti = process.ti
        self.buf = buf
        self._visited: set[tuple] = set()
        self.stats = CollectStats()
        # attribution is resolved ONCE per pass; when off (None) every
        # per-block hook below is a single `is not None` test
        self._prof = obs.current_attribution()
        if self._prof is not None:
            self.msrlt.profiler = self._prof
        #: the oracle switch, read once per pass: every block's compiled
        #: plan, or every block's per-cell reference
        self._plans_on = self.ti.plans_enabled
        self._plan_for = self.ti.plan_for if self._plans_on else self.ti.reference_for
        #: id(ctype) -> :meth:`_type`'s answer, filled as types are met
        self._types: dict[int, tuple] = {}
        #: when chain tail slots are offered to their ChainPlan
        self.chain_backoff = ChainBackoff()

    # -- public entry points (paper interface names) --------------------------------

    def save_variable(self, block: MemoryBlock) -> None:
        """``Save_variable(&var)`` — collect the variable's own block."""
        self._drive(block)

    def save_pointer(self, value: int) -> None:
        """``Save_pointer(p)`` — collect the target of pointer value *p*."""
        self._drive(None, value)

    def save_contents(self, block: MemoryBlock) -> None:
        """What a ``BLOCK`` record carries after its header — the
        contents — for a block whose identity travels by other means (a
        pre-copy runs marker's units)."""
        self._drive(block, header=False)

    def save_tail(self) -> None:
        """What the stream carries after the globals.  Nothing here: every
        block a plain migration ships is reachable from a root.  (The
        pre-copy collector's tail section goes here.)"""

    # -- the rules a subclass may change -----------------------------------------------

    @property
    def _first_visit(self):
        """What the walk calls with a block's logical id when the block is
        about to be saved — BEFORE its contents, so cycles degrade to
        REFs.  Here the visited set's own ``add``: marking costs no
        Python-level call."""
        return self._visited.add

    def _first_visits(self, logicals: list) -> None:
        """:attr:`_first_visit` for the nodes of one chain batch."""
        self._visited.update(logicals)

    def _dangling(self, value: int) -> None:
        raise MSRLTError(
            f"pointer {value:#x} does not refer to any live memory block; "
            "the program stored a dangling or fabricated address, which is "
            "migration-unsafe"
        )

    # -- traversal ---------------------------------------------------------------------

    def _type(self, ctype) -> tuple:
        """What a block of *ctype* is saved with — ``(ctype, info, plan,
        its save slots, its unit loader)`` — looked up on the type's first
        block of the pass and kept for the rest.  The entry holds the
        type object, so the id it is keyed on cannot be recycled."""
        info = self.ti.info_for(ctype)
        plan = self._plan_for(info)
        slots = None if plan is None else plan.save_slots
        entry = self._types[id(ctype)] = (
            ctype, info, plan, slots, None if slots is None else plan.load_from,
        )
        return entry

    def _drive(self, block, value=None, header=True) -> None:
        """The depth-first walk: write the record of one pointer — to
        *block*, or, with no block given, of pointer *value* — and of
        everything first reached through it.

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
        and a NULL cell is written without leaving the unit.
        """
        buf = self.buf
        out = buf.storage  # not drained while a walk is under way
        drained = buf.bytes_drained
        memory = self.memory
        heap = memory.heap_seg
        visited = self._visited
        first_visit = self._first_visit
        msrlt = self.msrlt
        starts, blocks = msrlt.sorted_index  # the walk registers nothing
        depth = len(starts).bit_length()  # what one search probes
        searched = msrlt.profiler  # books every search, as lookup_addr does
        types = self._types
        prof = self._prof
        open_frames = 0 if prof is None else prof.depth()
        backoff = self.chain_backoff
        skip = backoff.skip  # tail slots left to pass over unoffered
        n_blocks = n_refs = n_nulls = n_walked = n_searches = data_bytes = 0
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
                        n_nulls += 1
                        block = None
                    else:
                        # MSRLT.lookup_addr, inlined
                        n_searches += 1
                        if searched is not None:
                            searched.msrlt_lookup(depth)
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
                                value = chain.save_batch(self, block, off)
                                if value is not None:
                                    # a batch went out; its last node's tail
                                    # is the next record (maybe another batch)
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
                        n_refs += 1
                    else:
                        ctype = block.elem_type
                        _, info, new, steps, load = (
                            types.get(id(ctype)) or self._type(ctype)
                        )
                        if header:
                            ordinal = info.byte_to_ordinal(off, block.count) if off else 0
                            first_visit(logical)
                            if prof is not None:
                                prof.enter_block(
                                    "collect", info.label, block_class_of(logical),
                                    drained + len(out),
                                )
                            # the header: only the fields that do not
                            # hold their constant travel
                            kind, la, lb = logical
                            lead = TAG_BLOCK | kind << 2
                            if info.flat_kind is not None:
                                lead |= LEAD_FLAT
                            count = block.count
                            if kind != _STACK and count == 1 and not ordinal:
                                # a heap or global node's header
                                out += RECORDS[lead].pack(lead, la, info.type_id)
                            else:
                                fields = (
                                    [la, lb, info.type_id] if kind == _STACK
                                    else [la, info.type_id]
                                )
                                if count != 1:
                                    lead |= LEAD_COUNT
                                    fields.append(count)
                                if ordinal:
                                    lead |= LEAD_ORDINAL
                                    fields.append(ordinal)
                                out += RECORDS[lead].pack(lead, *fields)
                        n_blocks += 1
                        data_bytes += block.size
                        # its contents: written at once, or a new frame
                        if steps is not None:
                            pointers, n = None, block.count * info.repeat
                        else:
                            n = 0
                            pointers = None if new is None else new.save(self, block, info)
                        if n or pointers is not None:
                            stack.append(
                                (walker, plan, opened, slots, at, values, addr,
                                 units, unpack)
                            )
                            walker, plan, slots, units = pointers, new, steps, n
                            opened = block if header else None
                            if n:
                                n_walked += 1
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
                            prof.exit_block(
                                drained + len(out),
                                "percell" if new is None else new.engagement,
                                cells=info.cells_in(block.count),
                            )
                        header = True
                # -- advance the open frame to its next pointer
                while True:
                    if walker is not None:
                        value = next(walker, None)
                        if value is not None:
                            chain = None
                            break
                    elif units:
                        pack, a, b, p, chain = slots[at]
                        at += 1
                        if pack is not None:
                            out += pack(*values[a:b])
                        if p >= 0:
                            value = values[p]
                            if value:
                                break
                            out += _NULL_RECORD
                            n_nulls += 1
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
                        stats.n_refs += n_refs
                        stats.n_nulls += n_nulls
                        stats.data_bytes += data_bytes
                        if self._plans_on:
                            stats.n_plan_blocks += n_walked
                        return
                    # the open frame is finished: resume the one beneath
                    if opened is not None and prof is not None:
                        ctype = opened.elem_type
                        prof.exit_block(
                            drained + len(out), plan.engagement,
                            cells=types[id(ctype)][1].cells_in(opened.count),
                        )
                    (walker, plan, opened, slots, at, values, addr,
                     units, unpack) = stack.pop()
        except BaseException:
            if prof is not None:
                prof.unwind(open_frames, drained + len(out))
            raise
        finally:
            backoff.skip = skip
            msrlt.n_searches += n_searches

    # -- bookkeeping --------------------------------------------------------------------

    def finish(self) -> CollectStats:
        """Finalize statistics (call once after all saves)."""
        self.stats.wire_bytes = self.buf.nbytes
        if self._prof is not None:
            self._prof.note_payload(self.buf.nbytes)
        # the pass is over; stop feeding lookup costs to the profiler
        self.msrlt.profiler = None
        return self.stats


# -- paper-style free-function interface --------------------------------------------


def Save_variable(collector: Collector, block: MemoryBlock) -> None:
    """Paper-style alias for :meth:`Collector.save_variable`."""
    collector.save_variable(block)


def Save_pointer(collector: Collector, value: int) -> None:
    """Paper-style alias for :meth:`Collector.save_pointer`."""
    collector.save_pointer(value)
