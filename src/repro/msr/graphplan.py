"""Compiled content plans: one per (type, architecture) (DESIGN.md §8).

The paper's TI table holds one saving and one restoring function per
type (§3.1).  Here that function is a *plan*, compiled once by
:meth:`repro.msr.ti.TITable.plan_for` and cached on the ``TypeInfo``.
A plan converts data; it never follows a pointer.  The traversal
drivers (:meth:`repro.msr.collect.Collector._drive`,
:meth:`repro.msr.restore.Restorer._drive`) own the depth-first walk.  A
block whose plan is ``raw`` — a :class:`CastPlan` whose host image is
its wire image, decided once at compile time — they copy themselves,
``block.size`` bytes with no plan call; of the plan of any other block
they open they ask for one of three things:

- nothing more — ``save`` / ``restore`` wrote (consumed) the whole
  contents and returned ``None`` (:class:`CastPlan`: blocks without
  pointers);
- an iterator — ``save`` yields the pointer values the driver must
  resolve itself, ``restore`` yields once per record it needs read and
  is sent the destination address (:class:`PtrArrayPlan`: everything
  else in the block went out, or came in, in bulk);
- its *slots* — a :class:`RecordPlan` (and the per-cell oracle it is
  checked against, :class:`CellRecord`) is walked by the driver itself:
  per unit one ``load`` / ``store`` of all cells, one precompiled
  ``struct.Struct`` per scalar run between two pointers, and the
  pointer cells in order.

There are four plan kinds, chosen by :func:`compile_plan` from the shape
of the unit:

- :class:`CastPlan` — every pointer-free unit, flat (``double[n]``) or
  not (``struct {int a; double b;}``): a host-dtype view over the
  segment window cast in one pass into the wire buffer, and one cast of
  the wire bytes into a writable view on restore; ``raw`` where the two
  dtypes hold the same bytes (``char[]`` everywhere; no padding and
  every cell its wire image).
- :class:`PtrArrayPlan` — dense pointer arrays (``cell *hot[64]``): the
  pointers resolved per distinct target block (one table search each,
  never a pass over the table), NULL/REF runs written as one structured
  array; only a pointer to a block not yet visited goes back to the
  driver.
- :class:`RecordPlan` — every other pointer-bearing unit (list and tree
  nodes, records owning strings, arrays of such structs).
- :class:`ChainPlan` — not a plan of its own but the batching half of a
  RecordPlan whose last cell points to its own type (list nodes): at
  that *tail* slot the driver offers the pointer to
  :meth:`ChainPlan.save_batch` / :meth:`ChainPlan.restore_batch`, which
  emit (rebuild) a whole stride-regular chain of nodes as one row array,
  or decline having touched nothing.  A per-pass backoff stops the probing on data that
  never batches.

Every plan produces and consumes bytes *identical* to the per-cell
reference: each decision point either batches or hands the record to the
driver, never both for the same record, and eligibility (visited marks,
address parity of the destination allocator, padding ordinals, dangling
pointers) is checked before any byte is written.
``TITable.plans_enabled = False`` (tests only) swaps every plan for its
reference (:meth:`~repro.msr.ti.TITable.reference_for`) — the oracle —
under the very same drivers.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from itertools import repeat

import numpy as np

from repro.arch import xdr
from repro.msr.msrlt import BlockKind, MemoryBlock
from repro.msr.wire import (
    HEAP_UNIT,
    TAG_NULL,
    TAG_REF,
    lead_byte,
    lead_kind,
    record_dtype,
)
from repro.vm.memory import host_kinds

__all__ = [
    "CastPlan",
    "PtrArrayPlan",
    "CellRecord",
    "RecordPlan",
    "ChainPlan",
    "compile_plan",
]

#: smallest pointer array worth the NumPy call overhead (below this the
#: scalar loop is faster; payload bytes are identical either way, so the
#: threshold is purely a performance choice)
MIN_BULK_CELLS = 16
#: smallest chain batch worth the NumPy round-trip.  The scalar
#: pre-walk in :meth:`ChainPlan._save_batch` must find this many linked
#: nodes before anything is vectorized, so tree-shaped data (whose
#: "chains" are 2-3 coincidentally adjacent allocations) stays with the
#: driver; a restore batch takes a run of this many rows or none.
MIN_CHAIN = 4
#: deterministic engagement backoff: after this many *consecutive*
#: declined chain attempts the plan declines the next CHAIN_BACKOFF_SKIP
#: tail slots outright (tree-shaped and irregular data decline every
#: time; without backoff the per-tail attempt cost adds up).  A miss is
#: booked before the traversal descends into the tail's target, so a
#: deep chain backs off after CHAIN_BACKOFF_MISSES nodes, not after the
#: walk comes back up.  Any committed batch resets the miss count, so a
#: long list that follows a tree re-engages within ~CHAIN_BACKOFF_SKIP
#: nodes.  Purely a timing choice — the emitted/consumed bytes never
#: depend on engagement.
CHAIN_BACKOFF_MISSES = 8
CHAIN_BACKOFF_SKIP = 512

# The records the plans batch are the fixed-stride ones (see
# :mod:`repro.msr.wire`): a REF to a heap or global block — one row shape
# under two leads; a REF to a stack block carries its ``b`` and is the
# driver's — and the BLOCK header of one heap unit whose serial the walk
# implies: its lead alone.  A batch ends at the first row whose lead is
# not the one it was compiled for.
_REF_HEAP = lead_byte(TAG_REF, BlockKind.HEAP)
_REF_GLOBAL = lead_byte(TAG_REF, BlockKind.GLOBAL)
_NODE = HEAP_UNIT
_REF_LEADS = (_REF_GLOBAL, _REF_HEAP)
#: one REF row: lead, a, ordinal
REF_DTYPE = np.dtype(record_dtype(_REF_HEAP))


def _unique_rows(trip: np.ndarray) -> np.ndarray:
    """``np.unique(trip, axis=0)`` with the same single-group fast path
    (the axis-0 form sorts void records, which is disproportionately
    slow)."""
    if bool((trip == trip[0]).all()):
        return trip[:1]
    return np.unique(trip, axis=0)


def vec_byte_to_ordinal(info, offs: np.ndarray):
    """Vectorized ``TypeInfo.byte_to_ordinal`` for offsets inside their
    block, one past its end included — ``None`` if any offset lands in
    padding (the scalar path raises ``ValueError`` there; the caller
    falls back per-cell so the reference error surfaces).  One past the
    end needs no case of its own: it is the first cell, at offset 0, of
    the unit after the last, so its ordinal is ``cells_in(count)``.  An
    offset past the last cell of its unit searches to ``cell_count`` and
    is clamped onto a cell whose offset it is not."""
    unit_idx, within = np.divmod(offs, info.unit_size)
    cell_offs = np.fromiter((c.offset for c in info.cells), np.int64,
                            count=info.cell_count)
    pos = np.searchsorted(cell_offs, within)
    if not bool((cell_offs[np.minimum(pos, info.cell_count - 1)] == within).all()):
        return None
    return unit_idx * info.cell_count + pos


def vec_ordinal_to_byte(info, ords: np.ndarray, count: int) -> np.ndarray:
    """Vectorized ``TypeInfo.ordinal_to_byte`` (total, like the scalar)."""
    pastend = ords == info.cells_in(count)
    unit_idx = ords // info.cell_count
    within = ords - unit_idx * info.cell_count
    cell_offs = np.fromiter((c.offset for c in info.cells), np.int64,
                            count=info.cell_count)
    res = unit_idx * info.unit_size + cell_offs[within]
    res[pastend] = info.units_in(count) * info.unit_size
    return res


def _true_prefix(mask: np.ndarray) -> int:
    """Length of the leading all-True run of a boolean array."""
    bad = np.flatnonzero(~mask)
    return int(bad[0]) if bad.size else int(mask.size)


def _heap_logicals(serials: np.ndarray) -> list:
    """The logical ids of the heap blocks with *serials*, built in C."""
    return list(zip(repeat(BlockKind.HEAP), serials.tolist(), repeat(0)))


def _is_ref_row(leads: np.ndarray) -> np.ndarray:
    """Which of *leads* open a REF row."""
    return (leads == _REF_HEAP) | (leads == _REF_GLOBAL)


def _resolve_ref_rows(restorer, leads, serials, ords):
    """Translate REF rows (columns *leads*, *serials* — their ``a`` —
    and *ords*) through what the pass has restored so far.  Returns
    ``(destination addresses, n)``: the first *n* rows resolved; row
    *n*, if there is one, names a block this payload never defined or an
    ordinal past its block's end, and is the driver's to refuse."""
    n = len(leads)
    dests = np.zeros(n, np.uint64)
    pairs = np.stack(
        [lead_kind(leads).astype(np.int64), serials.astype(np.int64)], axis=1
    )
    for u in _unique_rows(pairs):
        sel = np.all(pairs == u, axis=1)
        tblock = restorer._mapping.get((int(u[0]), int(u[1]), 0))
        if tblock is None:
            n = min(n, int(np.flatnonzero(sel)[0]))
            continue
        tinfo = restorer.ti.info_for(tblock.elem_type)
        o = ords[sel].astype(np.int64)
        outside = np.flatnonzero(o > tinfo.cells_in(tblock.count))
        if outside.size:
            n = min(n, int(np.flatnonzero(sel)[outside[0]]))
        dests[sel] = tblock.addr + vec_ordinal_to_byte(tinfo, o, tblock.count)
    return dests, n


def _wire_image(host: np.dtype, wire: np.dtype) -> bool:
    """Whether every value's *host* bytes are its *wire* bytes — what a
    plan's ``raw`` says: one dtype, or both one byte wide (plain
    ``char`` is unsigned on some hosts and signed on the wire, and keeps
    its bits either way); for a struct, the same itemsize and every
    field at its wire offset, so no padding inside or after the fields."""
    if host.names is None:
        return host == wire or host.itemsize == wire.itemsize == 1
    return host.itemsize == wire.itemsize and all(
        host.fields[name][1] == wire.fields[name][1]
        and _wire_image(host.fields[name][0], wire.fields[name][0])
        for name in host.names
    )


# -- pointer-free units -------------------------------------------------------


class CastPlan:
    """One NumPy cast for every pointer-free unit.

    The host dtype is the kind's own for a flat unit (``double[n]``,
    ``struct {int a, b;}``: one item per cell), else a structured dtype
    with the cells at their real offsets and the unit's itemsize (one
    item per unit: padding is stepped over); the wire dtype is the packed
    big-endian image.  The cast is C-style, as ``xdr.encode`` and
    ``Memory.store`` convert one cell: narrowing wraps modulo 2^bits,
    widening sign-extends.  ``per_unit`` is the items per unit.
    """

    #: no slots: the traversal drivers do not walk this plan's blocks
    save_slots = restore_slots = None
    __slots__ = ("host", "wire", "per_unit", "padded", "raw")

    def __init__(self, info, layout) -> None:
        dtypes = host_kinds(layout.arch).dtypes
        if info.flat_kind is not None:
            self.host = dtypes[info.flat_kind]
            self.wire = xdr.wire_dtype(info.flat_kind)
            self.per_unit = info.cell_count
        else:
            cells = info.cells
            names = [f"c{i}" for i in range(len(cells))]
            self.host = np.dtype({
                "names": names,
                "formats": [dtypes[c.kind] for c in cells],
                "offsets": [c.offset for c in cells],
                "itemsize": info.unit_size,
            })
            self.wire = np.dtype({
                "names": names, "formats": [xdr.wire_dtype(c.kind) for c in cells],
            })
            self.per_unit = 1
        #: bytes no cell covers, which a restore must zero
        self.padded = self.host.itemsize * self.per_unit != sum(
            dtypes[c.kind].itemsize for c in info.cells
        )
        self.raw = _wire_image(self.host, self.wire)

    def save(self, collector, block, info) -> None:
        n = info.units_in(block.count) * self.per_unit
        image = collector.memory.view(block.addr, n * self.host.itemsize)
        collector.buf.write_ndarray(np.frombuffer(image, self.host, n), self.wire)

    def restore(self, restorer, block, info) -> None:
        n = info.units_in(block.count) * self.per_unit
        memory = restorer.memory
        data = restorer.buf.read(n * self.wire.itemsize)
        if self.padded:
            memory.zero(block.addr, n * self.host.itemsize)
        # one cast into a transient writable view over the segment window
        # (materialized first, so no resize can happen while it is alive)
        dst = memory.write_view(block.addr, n * self.host.itemsize)
        np.frombuffer(dst, self.host, n)[...] = np.frombuffer(data, self.wire, n)


# -- pointer arrays -----------------------------------------------------------


class _Targets:
    """The blocks one pointer array points into, resolved per target
    block, never per table: the values are sorted once, and each
    distinct target costs one ``bisect_right`` over the table's sorted
    starts (the scalar search) plus one search of the sorted values for
    the first one past that block's end.  ``blocks`` come out in address
    order, so one ``searchsorted`` over their starts maps every element
    back to its target: ``tix[k]`` indexes ``blocks`` (-1: NULL).  The
    columns hold each target's start, REF lead, ``a`` and type slot
    (``ctypes[slot]``); ``stack`` marks the stack targets, or is None
    when there are none."""

    __slots__ = ("blocks", "tix", "addrs", "leads", "las", "types", "ctypes", "stack")

    def __init__(self, blocks: list, vals: np.ndarray) -> None:
        self.blocks = blocks
        slots = {}  # id(elem_type) -> (slot, elem_type), in slot order
        cols = np.array(
            [
                (b.addr, lead_byte(TAG_REF, b.logical[0]), b.logical[1],
                 slots.setdefault(id(b.elem_type), (len(slots), b.elem_type))[0])
                for b in blocks
            ],
            np.int64,
        ).reshape(-1, 4)
        self.addrs, self.leads, self.las, self.types = cols.T
        self.ctypes = [ctype for _, ctype in slots.values()]
        stack = [b.logical[0] == BlockKind.STACK for b in blocks]
        self.stack = np.array(stack) if any(stack) else None
        self.tix = np.searchsorted(self.addrs, vals, "right") - 1
        self.tix[vals == 0] = -1

    @classmethod
    def of(cls, msrlt, vals: np.ndarray):
        """Resolve *vals*; ``None`` when a non-NULL one lies in no block
        (the driver raises at it)."""
        starts, table = msrlt.sorted_index
        svals = np.sort(vals)
        if svals[0] < 0:
            return None  # no block holds it
        blocks = []
        k, total = int(svals.searchsorted(0, "right")), len(svals)  # past the NULLs
        while k < total:
            v = int(svals[k])
            i = bisect_right(starts, v) - 1
            if i < 0:
                return None
            block = table[i]
            end = block.addr + block.size
            if v > end:  # one past the end is in (C pointer rules)
                return None
            blocks.append(block)
            k = int(svals.searchsorted(end, "right"))
        return cls(blocks, vals)

    def ref_rows(self, ti, vals: np.ndarray, p: int, q: int):
        """The REF rows (lead, ``a``, ordinal) of ``vals[p:q]``, pointers
        into visited blocks; ``None`` when one of them points into
        padding or at a stack block (the driver's: it raises there, or
        writes the wider REF a stack target takes)."""
        run = self.tix[p:q]
        if self.stack is not None and bool(self.stack[run].any()):
            return None
        offs = vals[p:q] - self.addrs[run]
        # one vectorized byte_to_ordinal per target type, not per target
        types = self.types[run] if len(self.ctypes) > 1 else None
        ords = np.empty(q - p, np.int64)
        for slot, ctype in enumerate(self.ctypes):
            sel = slice(None) if types is None else types == slot
            o = vec_byte_to_ordinal(ti.info_for(ctype), offs[sel])
            if o is None:
                return None
            ords[sel] = o
        rows = np.empty(q - p, REF_DTYPE)
        rows["lead"] = self.leads[run]
        rows["a"] = self.las[run]
        rows["ordinal"] = ords
        return rows


class PtrArrayPlan:
    """Run-batched save/restore for dense pointer-array blocks.

    Runs of NULLs and of pointers to visited blocks go out (come in) as
    one array each.  What is left — a pointer to a block not yet
    visited, a dangling one, an array too short to be worth a NumPy
    round-trip — is handed to the traversal driver one pointer at a
    time: ``save`` and ``restore`` are generators, suspended on the
    driver's work stack while it descends into the target.  ``implied``
    is the type id every element's declared target implies for the
    records the driver writes (reads) there; ``host`` the host pointer
    dtype.
    """

    save_slots = restore_slots = None
    raw = False
    __slots__ = ("implied", "host")

    def __init__(self, info, layout) -> None:
        # otherwise stateless: every block resolves its own targets
        self.implied = info.implied[0]
        self.host = host_kinds(layout.arch).dtypes["ptr"]

    # -- collect --------------------------------------------------------------

    def save(self, collector, block, info):
        """Yields the pointer values the driver must resolve itself."""
        n = info.cells_in(block.count)
        host = self.host
        raw = collector.memory.view(block.addr, n * host.itemsize)
        vals = np.frombuffer(raw, dtype=host, count=n).astype(np.int64)
        del raw
        targets = _Targets.of(collector.msrlt, vals) if n >= MIN_BULK_CELLS else None
        if targets is None:
            # a short array, or a dangling pointer somewhere in this one:
            # the driver resolves every element, and raises the canonical
            # error at the right one (no searches counted here)
            yield from vals.tolist()
            return
        tix = targets.tix
        visited = collector._visited
        # classify: 0 = NULL (a -1 reads the trailing 0), 1 = REF (target
        # visited), 2 = BLOCK
        cls = np.array(
            [1 if b.logical in visited else 2 for b in targets.blocks] + [0]
        )[tix]
        buf = collector.buf
        p = 0
        while p < n:
            c = int(cls[p])
            if c == 2:
                t = int(tix[p])
                if targets.blocks[t].logical in visited:
                    # visited behind an earlier element: every pointer
                    # to it from here on is a REF
                    cls[p:][tix[p:] == t] = 1
                    continue
                # unvisited target: the driver emits the BLOCK record
                # and its contents (and counts its own search)
                yield int(vals[p])
                p += 1
                continue
            brk = np.flatnonzero(cls[p:] != c)
            q = p + (int(brk[0]) if brk.size else n - p)
            if c == 0:
                buf.write(bytes(q - p))  # a NULL record is one zero byte
                p = q
                continue
            rows = targets.ref_rows(collector.ti, vals, p, q)
            if rows is None:
                # the driver replays the run, emitting identical REF
                # bytes: up to the exact element whose padding offset is
                # a ValueError, or with the wider REFs stack targets take
                yield from vals[p:q].tolist()
            else:
                buf.write(rows.tobytes())
                collector.msrlt.count_searches(q - p)  # one per translated pointer
            p = q

    # -- restore --------------------------------------------------------------

    def restore(self, restorer, block, info):
        """Yields once per record the driver must read itself, and is
        sent the destination address that record denotes."""
        n = info.cells_in(block.count)
        bulk = n >= MIN_BULK_CELLS
        buf = restorer.buf
        out = np.zeros(n, np.uint64)
        p = 0
        while p < n:
            lead = buf.peek_u8() if bulk else None
            if lead == TAG_NULL:
                window = buf.buffered()
                v = np.frombuffer(window, np.uint8,
                                  count=min(n - p, len(window)))
                nz = np.flatnonzero(v)
                run = int(nz[0]) if nz.size else len(v)
                buf.read(run)
                p += run
                continue
            if lead in _REF_LEADS:
                q = self._restore_ref_run(restorer, out, p, n)
                if q > p:
                    p = q
                    continue
            # a BLOCK, an undefined lead (the driver raises the canonical
            # error), or a REF the batch could not take
            out[p] = yield
            p += 1
        dst = restorer.memory.write_view(block.addr, n * self.host.itemsize)
        np.frombuffer(dst, self.host, n)[...] = out

    def _restore_ref_run(self, restorer, out, p, n) -> int:
        """Resolve the run of REF records at the read position into
        ``out[p:]``; returns the index after the last one taken (*p*
        itself when the first record is not for the batch)."""
        buf = restorer.buf
        window = buf.buffered()
        k = min(n - p, len(window) // REF_DTYPE.itemsize)
        if k == 0:
            return p  # the payload ends inside this record: the walk raises the underrun
        rows = np.frombuffer(window, REF_DTYPE, count=k)
        m = _true_prefix(_is_ref_row(rows["lead"]))
        dests, m = _resolve_ref_rows(
            restorer, rows["lead"][:m], rows["a"][:m], rows["ordinal"][:m]
        )
        out[p : p + m] = dests[:m]
        buf.read(m * REF_DTYPE.itemsize)
        return p + m


# -- linked chains ------------------------------------------------------------


class ChainBackoff:
    """Chain engagement backoff of one collect or restore pass.  The
    traversal driver counts ``skip`` down, one per tail slot it passes
    over without offering it to the plan (it holds the count in a local
    while a walk is under way); the plan books every offer's outcome."""

    __slots__ = ("misses", "skip")

    def __init__(self) -> None:
        self.misses = 0  # consecutive declined attempts
        self.skip = 0  # tail slots left to pass over unoffered

    def book(self, committed: bool) -> None:
        """The outcome of one offered tail slot."""
        if committed:
            self.misses = 0
            return
        self.misses += 1
        if self.misses >= CHAIN_BACKOFF_MISSES:
            self.misses = 0
            self.skip = CHAIN_BACKOFF_SKIP


class ChainPlan:
    """Stride-speculative batching for linked-list-shaped structs.

    Compiled next to the :class:`RecordPlan` of a unit type whose *last*
    cell is a pointer to the unit type (``struct probe {cell *target; int
    strength; probe *next}``).  The traversal driver walks such a block
    like any other record; what this adds happens at the tail pointer,
    which the driver offers to :meth:`save_batch` / :meth:`restore_batch`
    before it resolves it itself.  One wire row is the fixed-size image of one
    chain node's BLOCK record: the header of a heap unit (its lead alone:
    the tail's declared target is the node type, so the type is implied,
    and a batch takes only nodes whose serials continue the walk's
    stride, so the serial is implied too) + each non-tail cell (scalars
    in wire encoding, pointers as REF rows).  The tail pointer of node *k*
    IS the record of node *k+1*, so ``m`` nodes serialize as exactly
    ``m`` consecutive rows followed by the last node's tail record.
    """

    __slots__ = (
        "info", "tail_off", "row_dtype", "row_size",
        "cols", "n_ptr_cols", "host_dtype_cache", "host_fields", "size",
        "_ptr_lead_offs",
    )

    def __init__(self, info, layout) -> None:
        self.info = info
        self.size = info.size
        self.tail_off = info.cells[-1].offset
        fields = record_dtype(_NODE)
        #: ("ptr"|"scalar", cell, wire field name(s) prefix)
        self.cols = []
        for j, c in enumerate(info.cells[:-1]):
            if c.kind == "ptr":
                fields += record_dtype(_REF_HEAP, f"p{j}")
                self.cols.append(("ptr", c, f"p{j}"))
            else:
                fields.append((f"c{j}", xdr.wire_dtype(c.kind)))
                self.cols.append(("scalar", c, f"c{j}"))
        self.row_dtype = np.dtype(fields)
        self.row_size = self.row_dtype.itemsize
        self.n_ptr_cols = sum(1 for k, _, _ in self.cols if k == "ptr")
        # scalar mirror of the vectorized row validation, for the cheap
        # pre-check in _restore_batch: the byte offset of every REF
        # column's lead
        self._ptr_lead_offs = tuple(
            self.row_dtype.fields[f"{name}lead"][1]
            for k, _, name in self.cols
            if k == "ptr"
        )
        #: host structured dtypes (all cells at their real offsets, one
        #: field per cell plus the tail) keyed by element stride
        self.host_dtype_cache: dict[int, np.dtype] = {}
        dtypes = host_kinds(layout.arch).dtypes
        self.host_fields = tuple(
            (f"h{j}", dtypes[c.kind], c.offset) for j, c in enumerate(info.cells)
        )

    def _host_dtype(self, stride: int) -> np.dtype:
        dt = self.host_dtype_cache.get(stride)
        if dt is None:
            dt = np.dtype({
                "names": [f[0] for f in self.host_fields],
                "formats": [f[1] for f in self.host_fields],
                "offsets": [f[2] for f in self.host_fields],
                "itemsize": stride,
            })
            self.host_dtype_cache[stride] = dt
        return dt

    def _book_batch(self, prof, phase, m, nbytes, t0, pos) -> None:
        """Attribution of a committed batch: *m* block visits of this
        type booked in one call.  The per-cell order nests each node in
        its predecessor, so what follows the batch inside the open block
        (the record after it: the last node's tail) is a node's, not
        the open block's — it lands in a continuation frame of the
        nodes' row, which closes with the open block.  (Only a heap block of this very type has more units to
        come, and those land in that same row.)"""
        label = self.info.label
        heap = BlockKind.NAMES[BlockKind.HEAP]
        prof.book_batch(phase, label, heap, m, nbytes, prof.clock() - t0)
        prof.enter_block(phase, label, heap, pos, counted=False)

    # -- collect --------------------------------------------------------------

    def save_batch(self, collector, block, off):
        """The driver's offer of a tail pointer that resolved to
        (*block*, *off*).  Emits a batch of node records starting there
        and returns the last node's tail pointer value — the next record
        is that pointer's — or returns ``None`` having written nothing
        (declined: the driver resolves the pointer)."""
        value = self._save_batch(collector, block, off)
        # a miss is booked BEFORE the driver descends: on a deep chain it
        # comes back to this frame only when the list ends
        collector.chain_backoff.book(value is not None)
        return value

    def _save_batch(self, collector, block, off):
        """One chain attempt starting at *block* (the tail's target).
        Emits a batch of ``>= MIN_CHAIN`` node records and returns the
        last node's tail pointer value, or returns ``None`` having
        written nothing."""
        msrlt = collector.msrlt
        info = self.info
        # every row's serial is the one the walk implies: the batch
        # starts where the pass's serial stride goes on
        step = collector._stride
        if (
            off != 0
            or block.count != 1
            or block.logical[0] != BlockKind.HEAP
            or block.logical[1] != collector._last + step
            or block.logical in collector._visited
            or collector.ti.info_for(block.elem_type) is not info
        ):
            return None
        memory = collector.memory
        a0 = block.addr
        t0 = memory.load("ptr", a0 + self.tail_off)
        stride = t0 - a0
        if t0 == 0 or stride == 0 or abs(stride) < self.size:
            return None
        # cheap scalar pre-walk over the table's own sorted arrays:
        # vectorize only when at least MIN_CHAIN equally-spaced eligible
        # nodes actually link up.  Tree-shaped data (where a "chain" is
        # 2-3 coincidentally adjacent allocations) fails here in a few
        # list bisects instead of a NumPy round-trip per node.  ``a0``'s
        # own tail IS ``t0``, so the link load is skipped for the first
        # hop.
        starts, blocks = msrlt.sorted_index
        elem_type = block.elem_type
        visited = collector._visited
        # the first node's other pointers must be REFs (non-NULL, target
        # visited) or _build_rows ends the batch at zero rows: a list
        # whose records each own a string declines here
        for kind, cell, _name in self.cols:
            if kind != "ptr":
                continue
            ptr = memory.load("ptr", a0 + cell.offset)
            if ptr == 0:
                return None
            i = bisect_right(starts, ptr) - 1
            if i >= 0:
                owner = blocks[i]
                if ptr < owner.end and owner.logical not in visited:
                    return None
        tail_off = self.tail_off
        addr = a0
        nxt = t0
        linked = 1
        serial = block.logical[1]
        while True:
            i = bisect_right(starts, nxt) - 1
            if i < 0:
                break
            node = blocks[i]
            serial += step
            if (
                node.addr != nxt
                or node.logical[0] != BlockKind.HEAP
                or node.logical[1] != serial
                or node.elem_type is not elem_type
                or node.count != 1
                or node.logical in visited
            ):
                break
            linked += 1
            if linked >= MIN_CHAIN:
                break
            addr = nxt
            nxt = addr + stride
            if memory.load("ptr", addr + tail_off) != nxt:
                break
        if linked < MIN_CHAIN:
            return None
        prof = collector._prof
        t0 = 0.0 if prof is None else prof.clock()
        seg = memory.heap_seg
        lo = seg.window_start
        hi = lo + len(seg.buf)
        astride = abs(stride)
        # candidates a0 + stride·k must leave the strided gather fully
        # inside the materialized heap window (registered blocks always
        # are; the |stride|-sized element windows need checking)
        if stride > 0:
            kmax = (hi - a0) // stride
        else:
            kmax = (a0 - lo) // astride + 1
            if a0 + astride > hi:
                kmax = 0  # topmost element's stride window would overrun
        m, hostarr, serials = self._walk(
            msrlt, seg, block, stride, kmax, visited, step
        )
        if m < MIN_CHAIN:
            return None
        rows, m = self._build_rows(collector, hostarr, m)
        if m < MIN_CHAIN:
            return None
        collector._first_visits(_heap_logicals(serials[:m]))
        collector._last = int(serials[m - 1])
        collector.buf.write(rows[:m].tobytes())
        stats = collector.stats
        stats.n_blocks += m
        stats.n_plan_blocks += m
        stats.data_bytes += m * self.size
        if prof is not None:
            self._book_batch(
                prof, "collect", m, m * self.row_size, t0, collector.buf.nbytes
            )
        # discovery of elements 1..m-1 plus one translate per REF col
        msrlt.count_searches((m - 1) + m * self.n_ptr_cols)
        return int(hostarr[self.host_fields[-1][0]][m - 1])

    def _walk(self, msrlt, seg, block, stride, kmax, visited, step):
        """Speculative stride walk from *block*: the longest prefix of
        candidates ``a0 + stride·k`` linked by their tail pointers, read
        through one strided view of the heap window (geometric growth
        keeps failed speculation O(1)), then cut in front of the first
        that is not an unvisited node of this type whose serial is
        *block*'s plus ``step·k`` — one search of the table's sorted
        arrays per linked node, as the pre-walk makes.  A visited node
        must arrive as a REF; the first one is unvisited (the caller
        checked).  Returns ``(m, host record array for m
        nodes, their serials)``."""
        a0 = block.addr
        cap = 32
        host_dt = self._host_dtype(abs(stride))
        tail_name = self.host_fields[-1][0]
        while True:
            k = min(cap, kmax)
            if k <= 0:
                return 0, None, None
            base = a0 if stride > 0 else a0 + stride * (k - 1)
            hostarr = np.frombuffer(
                seg.buf, host_dt, count=k, offset=base - seg.window_start
            )
            if stride < 0:
                hostarr = hostarr[::-1]
            tails = hostarr[tail_name][: k - 1].astype(np.int64)
            nexts = a0 + stride * np.arange(1, k, dtype=np.int64)
            m = _true_prefix(tails == nexts) + 1
            if m == k == cap and cap < kmax:
                cap *= 4
                continue
            break
        starts, blocks = msrlt.sorted_index
        elem_type = block.elem_type
        serial = block.logical[1]
        serials = [serial]
        for addr in range(a0 + stride, a0 + stride * m, stride):
            # an address below every start searches to -1, the highest
            # block, which does not start there
            node = blocks[bisect_right(starts, addr) - 1]
            serial += step
            if (
                node.addr != addr
                or node.logical[0] != BlockKind.HEAP
                or node.logical[1] != serial
                or node.elem_type is not elem_type
                or node.count != 1
                or node.logical in visited
            ):
                break
            serials.append(node.logical[1])
        m = len(serials)
        return m, hostarr[:m], np.array(serials, np.int64)

    def _build_rows(self, collector, hostarr, m):
        """Vectorized row emission for *m* walked nodes; may shrink *m*
        when a non-tail pointer cell disqualifies an element (NULL, a
        not-yet-visited target, a stack target — all cases the driver
        must handle itself).  Each pointer column resolves per distinct
        target block (:class:`_Targets`), never per table; a column the
        driver refuses (a dangling pointer, a padding ordinal) declines
        the batch."""
        rows = np.zeros(m, self.row_dtype)
        rows["lead"] = _NODE
        visited = collector._visited
        for j, (kind, cell, name) in enumerate(self.cols):
            hname = f"h{j}"
            if kind == "scalar":
                rows[name][:m] = hostarr[hname][:m]
                continue
            vals = hostarr[hname][:m].astype(np.int64)
            m = _true_prefix(vals != 0)
            if m < MIN_CHAIN:
                return rows, m
            targets = _Targets.of(collector.msrlt, vals[:m])
            if targets is None:
                return rows, 0
            # targets must already be visited (they arrive as REFs); an
            # unvisited or batch-internal-forward target needs the
            # driver to open it, so it ends the batch — as does a stack
            # target, whose REF is wider than the column
            takes = np.array([
                b.logical in visited and b.logical[0] != BlockKind.STACK
                for b in targets.blocks
            ])
            m = _true_prefix(takes[targets.tix])
            if m < MIN_CHAIN:
                return rows, m
            refs = targets.ref_rows(collector.ti, vals, 0, m)
            if refs is None:
                return rows, 0
            rows[f"{name}lead"][:m] = refs["lead"]
            rows[f"{name}a"][:m] = refs["a"]
            rows[f"{name}ordinal"][:m] = refs["ordinal"]
        return rows, m

    # -- restore --------------------------------------------------------------

    def restore_batch(self, restorer):
        """Mirror of :meth:`save_batch`, offered before the driver reads
        the tail's record.  Returns ``(address of the first node, address
        of the last node's tail cell)`` — the next record is that cell's
        — or ``None`` having consumed nothing."""
        batch = self._restore_batch(restorer)
        restorer.chain_backoff.book(batch is not None)
        return batch

    def _restore_batch(self, restorer):
        """Rebuild a run of ``>= MIN_CHAIN`` chain rows at the
        read position.  Returns ``(address of the first node, address of
        the last node's tail cell)``, or ``None`` having consumed
        nothing."""
        info = self.info
        buf = restorer.buf
        try:
            lead = buf.peek_u8()
        except EOFError:
            return None
        if lead != _NODE:
            return None
        # scalar pre-check: the batch only engages when the first
        # MIN_CHAIN records already look like chain rows, so a
        # lone BLOCK record (tree-shaped data arrives as one per tail)
        # declines in two struct unpacks instead of a vectorized parse
        window = buf.buffered()
        row_size = self.row_size
        if len(window) < MIN_CHAIN * row_size:
            return None
        for off in range(0, MIN_CHAIN * row_size, row_size):
            if window[off] != _NODE:
                return None
            for po in self._ptr_lead_offs:
                if window[off + po] not in _REF_LEADS:
                    return None
        prof = restorer._prof
        t0 = 0.0 if prof is None else prof.clock()
        memory = restorer.memory
        cap = 64  # >= MIN_CHAIN, which the pre-check found in the window
        while True:
            k = min(cap, len(window) // row_size)
            rows = np.frombuffer(window, self.row_dtype, count=k)
            valid = rows["lead"] == _NODE
            for kind, _cell, name in self.cols:
                if kind == "ptr":
                    valid &= _is_ref_row(rows[f"{name}lead"])
            m = _true_prefix(valid)
            if m == k == cap and len(window) // row_size > k:
                cap *= 4
                continue
            break
        if m < MIN_CHAIN:
            return None
        # the rows' serials are the ones the walk implies, inside u32
        # (the driver refuses the first outside), and must be new to this
        # payload (a duplicate BLOCK record is corrupt; the driver raises
        # on it) — or, in a pre-copy pass, to the scratch (a held block
        # restores in place, by the driver)
        steps = np.arange(1, m + 1, dtype=np.int64)
        serials = restorer._last + restorer._stride * steps
        m = _true_prefix((serials >= 0) & (serials <= 0xFFFFFFFF))
        if m < MIN_CHAIN:
            return None
        logicals = _heap_logicals(serials[:m])
        mapping = restorer._mapping
        if len(set(logicals)) < m or not mapping.keys().isdisjoint(logicals):
            seen = set()
            for j, logical in enumerate(logicals):
                if logical in mapping or logical in seen:
                    m = j
                    break
                seen.add(logical)
            if m < MIN_CHAIN:
                return None
        # resolve every REF column target against already-restored blocks
        dest_cols = {}
        for kind, _cell, name in self.cols:
            if kind != "ptr":
                continue
            dests, m = _resolve_ref_rows(
                restorer, rows[f"{name}lead"][:m], rows[f"{name}a"][:m],
                rows[f"{name}ordinal"][:m],
            )
            if m < MIN_CHAIN:
                return None
            dest_cols[name] = dests
        # one carve for the batch — declined when the free list would
        # change which addresses block-by-block allocation assigns
        base = memory.heap_carve(self.size, m)
        if base is None:
            return None
        stride = memory.heap_size_of(base)
        ctype, size = info.ctype, self.size
        logicals = logicals[:m]
        blocks = [
            MemoryBlock(addr, ctype, 1, size, logical)
            for addr, logical in zip(range(base, base + m * stride, stride), logicals)
        ]
        mapping.update(zip(logicals, blocks))
        restorer._pending.extend(blocks)
        restorer._last = logicals[-1][1]
        addrs = base + stride * np.arange(m, dtype=np.int64)
        host_dt = self._host_dtype(stride)
        out = np.zeros(m, host_dt)
        for j, (kind, _cell, name) in enumerate(self.cols):
            hname = f"h{j}"
            if kind == "scalar":
                out[hname] = rows[name][:m]
            else:
                out[hname] = dest_cols[name][:m]
        tail_h = self.host_fields[-1][0]
        out[tail_h][: m - 1] = addrs[1:]
        memory.write_view(base, out.nbytes)[:] = memoryview(out).cast("B")
        buf.read(m * self.row_size)
        stats = restorer.stats
        stats.n_blocks += m
        stats.n_heap_allocs += m
        if prof is not None:
            # a restore frame opens after its record's header, so the
            # first row's header stays with the frame around the batch
            self._book_batch(
                prof, "restore", m,
                m * self.row_size - 1, t0, buf.position,
            )
        return int(base), int(addrs[-1]) + self.tail_off


# -- records: pointer-bearing units the drivers walk ---------------------------


class _CellRun:
    """The reference wire codec of one scalar run: one ``xdr.encode`` /
    ``xdr.decode`` per cell.  Shaped like the :class:`struct.Struct` a
    :class:`RecordPlan` compiles for the same run (``size``, ``pack``,
    ``unpack_from``), so the drivers cannot tell them apart."""

    __slots__ = ("kinds", "size")

    def __init__(self, kinds) -> None:
        self.kinds = kinds
        self.size = sum(xdr.wire_sizeof(kind) for kind in kinds)

    def pack(self, *values) -> bytes:
        return b"".join(map(xdr.encode, self.kinds, values))

    def unpack_from(self, data, offset: int) -> list:
        values = []
        for kind in self.kinds:
            values.append(xdr.decode(kind, data, offset))
            offset += xdr.wire_sizeof(kind)
        return values


class CellRecord:
    """One per-cell unit type as the traversal drivers walk it, converted
    one cell at a time: ``Memory.load`` / ``xdr.encode`` on collection,
    ``xdr.decode`` / ``Memory.store`` on restoration.  This is the
    plans-off oracle (:meth:`repro.msr.ti.TITable.reference_for`);
    :class:`RecordPlan` is its compiled twin.

    The driver's view of a unit is a sequence of *slots*, one per pointer
    cell plus a closing one: ``(run, a, b, p, chain, implied)`` — cells
    ``a..b`` are the scalars between the previous pointer and this one,
    *run* their wire codec (``None`` for an empty run), *p* the pointer's
    cell index (``-1`` in the closing slot, whose run is the scalars
    after the last pointer), *chain* the :class:`ChainPlan` to offer the
    pointer to first (tail slot of a compiled list node only), *implied*
    the type id the pointer's declared target implies for the record the
    driver writes (reads) there (``TypeInfo.implied``).
    ``save_slots`` carry ``run.pack``, ``restore_slots`` the run itself
    (the restorer reads it with ``unpack_from`` at its cursor, and wants
    its ``size``).
    """

    #: no one-call unit load or store: the drivers call :meth:`load` /
    #: :meth:`store`
    load_from = store_into = None
    raw = False
    __slots__ = ("info", "unit_size", "cell_count", "save_slots", "restore_slots")

    def __init__(self, info, chain=None) -> None:
        self.info = info
        self.unit_size = info.unit_size
        self.cell_count = info.cell_count
        cells = info.cells
        pointers = [i for i, cell in enumerate(cells) if cell.kind == "ptr"]
        slots = []
        a = 0
        for p in [*pointers, -1]:
            b = len(cells) if p < 0 else p
            run = self._run(cells[a:b]) if b > a else None
            at_tail = chain is not None and p == len(cells) - 1
            implied = None if p < 0 else info.implied[p]
            slots.append((run, a, b, p, chain if at_tail else None, implied))
            a = b + 1
        self.restore_slots = tuple(slots)
        self.save_slots = tuple(
            (None if run is None else run.pack, *rest) for run, *rest in slots
        )

    def _run(self, cells):
        return _CellRun(tuple(cell.kind for cell in cells))

    def load(self, memory, addr: int) -> list:
        """The values of all cells of the unit at *addr*."""
        load = memory.load
        return [load(cell.kind, addr + cell.offset) for cell in self.info.cells]

    def store(self, memory, addr: int, values) -> None:
        """Write all cells of the unit at *addr* (wire-decoded scalars,
        destination addresses in the pointer cells) over a zeroed unit,
        so its padding restores as zeros, as every compiled plan's does."""
        memory.zero(addr, self.unit_size)
        store = memory.store
        for cell, value in zip(self.info.cells, values):
            store(cell.kind, addr + cell.offset, value)


class RecordPlan(CellRecord):
    """The compiled record: one host ``struct.Struct`` with the unit's
    real cell offsets (``x`` padding between and after them) loads or
    stores *all* cells in one call, and each scalar run is one wire
    ``Struct``.

    Host and wire disagree on exactly two things, and only these need
    care (every other kind has one width and one signedness everywhere):

    - plain ``char`` is signed on the wire whatever the host says, so the
      host side reads and writes it as the *signed* byte — the same byte
      ``xdr.encode`` / ``Memory.store`` wrap to, with no arithmetic;
    - ``long`` / ``ulong`` are 8 bytes on the wire.  A 4-byte host widens
      for free on collection; on restoration the value is narrowed modulo
      2^32 (``narrow``: cell index, mask, sign bit) before the one
      ``pack``, as ``Memory.store`` does per cell.

    Padding bytes restore as zeros.

    ``load_from`` is ``host.unpack_from``: the collector unpacks a unit
    straight from a heap window that already covers it, and calls
    :meth:`load` otherwise.  ``store_into`` is ``host.pack_into`` when no
    cell needs narrowing: the restorer then packs a unit straight into a
    segment window that already covers it (and no write barrier
    watches), and calls :meth:`store` otherwise.
    """

    __slots__ = ("host", "narrow", "load_from", "store_into")

    def __init__(self, info, layout) -> None:
        arch = layout.arch
        codes = host_kinds(arch).codes
        fmt = "<" if arch.byteorder == "little" else ">"
        end = 0
        for cell in info.cells:
            code = "b" if cell.kind == "char" else codes[cell.kind]
            fmt += f"{cell.offset - end}x{code}"
            end = cell.offset + arch.sizeof(cell.kind)
        self.host = struct.Struct(fmt + f"{info.unit_size - end}x")
        self.narrow = tuple(
            (i, 0xFFFFFFFF, 0x80000000 if cell.kind == "long" else 0)
            for i, cell in enumerate(info.cells)
            if cell.kind in ("long", "ulong") and arch.long_size == 4
        )
        self.load_from = self.host.unpack_from
        self.store_into = None if self.narrow else self.host.pack_into
        # a list node: its last cell points to its own type, so every
        # node of a batch is reached through a pointer implying its type
        chain_shaped = (
            info.repeat == 1
            and info.cell_count >= 2
            and info.cells[-1].kind == "ptr"
            and info.implied[-1] == info.type_id
        )
        super().__init__(info, ChainPlan(info, layout) if chain_shaped else None)

    def _run(self, cells):
        return struct.Struct(">" + "".join(xdr.wire_struct_code(c.kind) for c in cells))

    def load(self, memory, addr: int) -> tuple:
        seg = memory.segment_of(addr)
        return self.host.unpack_from(seg.buf, seg.offset(addr, self.unit_size))

    def store(self, memory, addr: int, values) -> None:
        for i, mask, sign in self.narrow:
            value = values[i] & mask
            values[i] = value - mask - 1 if value & sign else value
        memory.write_bytes(addr, self.host.pack(*values))


# -- compilation --------------------------------------------------------------


def compile_plan(info, layout):
    """Compile the content plan for one (TypeInfo, architecture), or
    ``None`` for a type without cells (nothing to convert).  Called only
    by ``TITable.plan_for``."""
    cells = info.cells
    if not cells:
        return None
    if not info.has_pointers:
        return CastPlan(info, layout)
    if (
        info.cell_count == 1
        and cells[0].offset == 0
        and info.unit_size == layout.arch.ptr_size
    ):
        return PtrArrayPlan(info, layout)
    return RecordPlan(info, layout)
