"""Data collection: ``Save_pointer`` and ``Save_variable``.

Paper §3.1: "Save_pointer initiates a depth-first traversal through
connected components of the MSR graph.  It examines memory blocks that
are referred to by pointers and then invokes type-specific saving
functions to save their contents.  During the traversal, visited memory
blocks are marked so that they are not saved again."

The collector walks live pointers depth-first; the first visit of a
block emits a ``BLOCK`` record (header, machine-independent id, type,
then contents converted cell-by-cell or via the bulk XDR path), every
later reference emits only a ``REF``.  Pointers inside block contents
recurse, which reproduces exactly the traversal order the paper's §3.2
example walks through (v11 → e8 → v6 → e6 → v10, backtrack …).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.arch import xdr
from repro.arch.buffers import WriteBuffer
from repro.msr.msrlt import MemoryBlock, MSRLTError
from repro.msr.ti import TypeInfo
from repro.msr.wire import FLAG_FLAT, TAG_BLOCK, TAG_NULL, TAG_REF, write_logical
from repro.obs.attribution import block_class_of

__all__ = ["CollectStats", "Collector", "Save_pointer", "Save_variable"]


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
    #: blocks saved through a FlatPlan or PtrArrayPlan, plus every block
    #: a ChainPlan batch emitted
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
        self.plan_enabled = self.ti.plans_enabled
        #: per-pass scratch owned by the plans (ChainPlan's backoff)
        self.plan_state = None

    # -- public entry points (paper interface names) --------------------------------

    def save_variable(self, block: MemoryBlock) -> None:
        """``Save_variable(&var)`` — collect the variable's own block."""
        self._save_target(block, byte_off=0)

    def save_pointer(self, value: int) -> None:
        """``Save_pointer(p)`` — collect the target of pointer value *p*."""
        if value == 0:
            self.buf.write_u8(TAG_NULL)
            self.buf.count_tag("NULL")
            self.stats.n_nulls += 1
            return
        try:
            block, off = self.msrlt.lookup_addr(value)
        except MSRLTError:
            raise MSRLTError(
                f"pointer {value:#x} does not refer to any live memory block; "
                "the program stored a dangling or fabricated address, which is "
                "migration-unsafe"
            ) from None
        self._save_target(block, off)

    def save_tail(self) -> None:
        """What the stream carries after the globals.  Nothing here: every
        block a plain migration ships is reachable from a root.  (The
        pre-copy final collector's tail roots go here.)"""

    # -- traversal ---------------------------------------------------------------------

    def _save_target(self, block: MemoryBlock, byte_off: int) -> None:
        info = self.ti.info_for(block.elem_type)
        ordinal = info.byte_to_ordinal(byte_off, block.count)
        if block.logical in self._visited:
            self.buf.write_u8(TAG_REF)
            self.buf.count_tag("REF")
            write_logical(self.buf, block.logical)
            self.buf.write_u32(ordinal)
            self.stats.n_refs += 1
            return

        # mark BEFORE saving contents: cycles degrade to REFs
        self._visited.add(block.logical)
        prof = self._prof
        if prof is not None:
            prof.enter_block(
                "collect", info.label, block_class_of(block.logical),
                self.buf.nbytes,
            )
        self.buf.write_u8(TAG_BLOCK)
        self.buf.count_tag("BLOCK")
        write_logical(self.buf, block.logical)
        self.buf.write_u32(info.type_id)
        self.buf.write_u32(block.count)
        self.buf.write_u32(ordinal)
        self.stats.n_blocks += 1
        self.stats.data_bytes += block.size
        if prof is None:
            self._save_contents(block, info)
        else:
            engagement = "percell"
            try:
                engagement = self._save_contents(block, info)
            finally:
                prof.exit_block(
                    self.buf.nbytes, engagement,
                    cells=info.cells_in(block.count),
                )

    def _save_contents(self, block: MemoryBlock, info: TypeInfo) -> str:
        """Serialize one block's contents: flag byte, then the type's
        compiled plan, else the reference path.  Returns which path
        engaged (``"flat"`` / ``"codec"`` / ``"percell"``, for
        attribution).

        The reference path is the plans-off oracle.  It stays inline,
        with few locals: this frame is on the stack once per pointer
        hop, and both a second frame and a fat one cost measurably."""
        flat = info.flat_kind
        self.buf.write_u8(0 if flat is None else FLAG_FLAT)
        plan = self.ti.plan_for(info) if self.plan_enabled else None
        if plan is not None and plan.save(self, block, info):
            return plan.engagement
        if flat is not None:
            # one vectorized encode for the whole block
            n = info.cells_in(block.count)
            data = self.ti.save_flat(self.memory, block.addr, flat, n)
            self.buf.write(data)
            self.stats.n_flat_blocks += 1
            return "flat"
        # the cell-by-cell saving function
        load = self.memory.load
        for unit in range(info.units_in(block.count)):
            base = block.addr + unit * info.unit_size
            for cell in info.cells:
                if cell.kind == "ptr":
                    self.save_pointer(load("ptr", base + cell.offset))
                else:
                    value = load(cell.kind, base + cell.offset)
                    self.buf.write(xdr.encode(cell.kind, value))
        return "percell"

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
