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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.arch import xdr
from repro.arch.buffers import ReadBuffer
from repro.msr.msrlt import BlockKind, MemoryBlock
from repro.msr.ti import TypeInfo
from repro.msr.wire import FLAG_FLAT, TAG_BLOCK, TAG_NULL, TAG_REF, read_logical
from repro.obs.attribution import block_class_of

__all__ = ["RestoreStats", "Restorer", "Restore_pointer", "Restore_variable"]


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
    """One data-restoration pass into a destination process."""

    def __init__(self, process, buf: ReadBuffer) -> None:
        self.process = process
        self.memory = process.memory
        self.msrlt = process.msrlt
        self.ti = process.ti
        self.buf = buf
        #: source logical id -> destination block (the MSRLT update)
        self._mapping: dict[tuple, MemoryBlock] = {}
        self.stats = RestoreStats()
        # attribution is resolved ONCE per pass; when off (None) every
        # per-block hook below is a single `is not None` test
        self._prof = obs.current_attribution()
        self.plan_enabled = self.ti.plans_enabled
        #: per-pass scratch owned by the plans (ChainPlan's backoff)
        self.plan_state = None
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
        for block in self.msrlt.arena().blocks:
            seg = self.memory.segment_of(block.addr)
            lo, hi = spans.get(seg.name, (block.addr, block.end))
            spans[seg.name] = (min(lo, block.addr), max(hi, block.end))
        for lo, hi in spans.values():
            self.memory.segment_of(lo).ensure(lo, hi - lo)

    # -- public entry points (paper interface names) ------------------------------------

    def restore_variable(self, block: MemoryBlock) -> None:
        """``Restore_variable(&var)`` — fill the variable's own block."""
        addr = self.restore_pointer(expected=block)
        del addr

    def restore_pointer(self, expected: MemoryBlock | None = None) -> int:
        """``Restore_pointer()`` — read one record, rebuild its target if
        needed, and return the *destination* address it denotes."""
        tag = self.buf.read_u8()
        if tag == TAG_NULL:
            self.stats.n_nulls += 1
            return 0

        if tag == TAG_REF:
            logical = read_logical(self.buf)
            ordinal = self.buf.read_u32()
            block = self._mapping.get(logical)
            if block is None:
                raise RestoreError(f"REF to unseen block {logical}")
            if expected is not None and block.logical != expected.logical:
                raise RestoreError(
                    f"REF to {logical} arrived where {expected.logical} was expected"
                )
            self.stats.n_refs += 1
            info = self.ti.info_for(block.elem_type)
            return block.addr + info.ordinal_to_byte(ordinal, block.count)

        if tag != TAG_BLOCK:
            raise RestoreError(f"bad record tag {tag}")

        logical = read_logical(self.buf)
        type_id = self.buf.read_u32()
        count = self.buf.read_u32()
        ordinal = self.buf.read_u32()
        info = self.ti.info(type_id)

        block = self._resolve_block(logical, info, count)
        if expected is not None and block.logical != expected.logical:
            raise RestoreError(
                f"record for {logical} arrived where {expected.logical} was expected"
            )
        # register the mapping BEFORE contents: cycles arrive as REFs
        self._mapping[logical] = block
        self.stats.n_blocks += 1
        self.stats.data_bytes += block.size
        prof = self._prof
        if prof is None:
            self._restore_contents(block, info)
        else:
            prof.enter_block(
                "restore", info.label, block_class_of(logical),
                self.buf.position,
            )
            engagement = "percell"
            try:
                engagement = self._restore_contents(block, info)
            finally:
                prof.exit_block(
                    self.buf.position, engagement,
                    cells=info.cells_in(block.count),
                )
        return block.addr + info.ordinal_to_byte(ordinal, block.count)

    def restore_tail(self) -> None:
        """Mirror of :meth:`Collector.save_tail`: nothing follows the
        globals in a plain stream."""

    # -- block resolution ------------------------------------------------------------------

    def _resolve_block(self, logical: tuple, info: TypeInfo, count: int) -> MemoryBlock:
        kind = logical[0]
        if kind in (BlockKind.GLOBAL, BlockKind.STACK):
            # structural identity: the destination process registered the
            # same block under the same machine-independent id
            block = self.msrlt.lookup_logical(logical)
            # reject size disagreements (corrupt or mismatched payloads
            # must never overwrite memory adjacent to the block)
            if info.size * count != block.size:
                raise RestoreError(
                    f"record for {logical} claims {info.size * count} bytes "
                    f"but the destination block is {block.size} bytes"
                )
            return block
        if kind == BlockKind.HEAP:
            self.stats.n_heap_allocs += 1
            return self.process.restore_heap_block(info.ctype, count, serial=logical[1])
        raise RestoreError(f"unknown block kind {kind}")

    # -- contents -----------------------------------------------------------------------------

    def _restore_contents(self, block: MemoryBlock, info: TypeInfo) -> str:
        """Rebuild one block's contents: flag byte, then the type's
        compiled plan, else the reference path.  Returns which path
        engaged (``"flat"`` / ``"codec"`` / ``"percell"``, for
        attribution).

        The reference path is the plans-off oracle, inline and with few
        locals for the same reason as ``Collector._save_contents``."""
        flat = info.flat_kind
        if bool(self.buf.read_u8() & FLAG_FLAT) != (flat is not None):
            # flatness is structural (same answer on every architecture),
            # so a disagreeing flag is a corrupt or mismatched payload
            raise RestoreError(f"flat flag disagrees with type {info.label}")
        plan = self.ti.plan_for(info) if self.plan_enabled else None
        if plan is not None and plan.restore(self, block, info):
            return plan.engagement
        if flat is not None:
            # one vectorized decode for the whole block
            n = info.cells_in(block.count)
            raw = self.buf.read(n * xdr.wire_sizeof(flat))
            self.ti.restore_flat(self.memory, block.addr, flat, n, raw)
            return "flat"
        # the cell-by-cell restoring function
        store = self.memory.store
        for unit in range(info.units_in(block.count)):
            base = block.addr + unit * info.unit_size
            for cell in info.cells:
                if cell.kind == "ptr":
                    store("ptr", base + cell.offset, self.restore_pointer())
                else:
                    raw = self.buf.read(xdr.wire_sizeof(cell.kind))
                    store(cell.kind, base + cell.offset, xdr.decode(cell.kind, raw))
        return "percell"


# -- paper-style free-function interface ---------------------------------------------


def Restore_variable(restorer: Restorer, block: MemoryBlock) -> None:
    """Paper-style alias for :meth:`Restorer.restore_variable`."""
    restorer.restore_variable(block)


def Restore_pointer(restorer: Restorer) -> int:
    """Paper-style alias for :meth:`Restorer.restore_pointer`."""
    return restorer.restore_pointer()
