"""The Type Information (TI) table.

Paper §3.1: "The TI contains type information of every memory block in a
process including type-specific functions to transform data of each type
between machine-specific and machine-independent formats.  We call these
functions the memory block saving and restoring functions."

A :class:`TypeInfo` is the per-(type, architecture) record.  Array types
are decomposed into ``repeat × unit`` (the innermost non-array element),
so the record stays O(sizeof(unit)) even for an 8 MB matrix: a block of
``double[1000*1000]`` has ``unit=double, repeat=1000000, cells=(1,)``.

The performance-critical classification is the *flat primitive kind*:
when a type is a homogeneous dense run of one primitive (``double[n]``,
``int``, ``struct {int a; int b;}``) its plan casts the block as an
array of that kind — a single vectorized NumPy read/byteswap instead of
a per-cell Python loop.  This keeps collecting an 8 MB linpack matrix at
memory-bandwidth speed (Figure 2(a)'s linear regime).

One TI table is shared by every process of a program on one architecture
(it is a pure cache over the type graph).

One compiled plan per type
--------------------------

The paper's TI table holds one saving and one restoring function per
type.  Here that pair is a *plan* object, compiled the first time a
block of the type is saved or restored and cached on the
:class:`TypeInfo`: :meth:`TITable.plan_for` is the only place a content
strategy is chosen (the four plan kinds and the shapes they compile for
are in :mod:`repro.msr.graphplan`; DESIGN.md §8).  A plan converts a
block's data and never follows a pointer: the depth-first walk belongs
to the traversal drivers in :mod:`repro.msr.collect` and
:mod:`repro.msr.restore`, which resolve the pointer cells a plan hands
them.  Plans are per-(type, architecture), so the destination table
compiles its own mirrors, and every plan produces bytes **identical** to
its per-cell reference (:meth:`TITable.reference_for`: one
``Memory.load`` + ``xdr.encode`` per cell, run by the same drivers).
Setting ``TITable.plans_enabled = False`` — tests only — gives every
block its reference instead of its plan: the oracle the plans-on/off
identity tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.arch import xdr
from repro.clang.ctypes import (
    ArrayType,
    Cell,
    CType,
    PointerType,
    PrimType,
    StructType,
    TypeLayout,
)
from repro.msr.graphplan import CellRecord, compile_plan

__all__ = ["TypeInfo", "TITable", "TypeIdError", "flat_prim_kind", "unit_of"]

#: the largest type id the u16 field of a ``BLOCK`` record can name
MAX_TYPE_ID = 0xFFFF


class TypeIdError(Exception):
    """The program has more types than the wire format can name."""


#: ``TypeInfo.plan`` before :meth:`TITable.plan_for` first compiles it
#: (``None`` is a compiled answer: no plan shape applies)
_UNCOMPILED = object()


def unit_of(ctype: CType) -> tuple[CType, int]:
    """Decompose *ctype* into ``(unit, repeat)`` — the innermost non-array
    element type and how many of them the type contains."""
    repeat = 1
    while isinstance(ctype, ArrayType):
        repeat *= ctype.length
        ctype = ctype.elem
    return ctype, repeat


def flat_prim_kind(ctype: CType, layout: TypeLayout) -> Optional[str]:
    """The single primitive kind *ctype* is a dense array of, if any.

    Returns e.g. ``"double"`` for ``double`` or ``double[100]``, or
    ``None`` when the type contains pointers, mixed kinds, or padding
    (then a plan converts whole units, or walks them).  Computed
    structurally on the *unit* type, so it is O(unit fields) even for
    huge arrays.
    """
    unit, _repeat = unit_of(ctype)
    if isinstance(unit, PrimType):
        return unit.kind
    if not isinstance(unit, StructType):
        return None  # pointers and anything exotic
    cells = layout.cells(unit)
    if not cells:
        return None
    kind = cells[0].kind
    if kind == "ptr" or any(c.kind != kind for c in cells):
        return None
    prim_size = layout.arch.sizeof(kind)
    if layout.sizeof(unit) != len(cells) * prim_size:
        return None  # tail padding
    return kind if all(c.offset == i * prim_size for i, c in enumerate(cells)) else None


@dataclass(slots=True)
class TypeInfo:
    """Per-(type, architecture) saving/restoring metadata.

    ``cells`` describe one *unit*; a block of this type with count *c*
    holds ``c * repeat`` units laid out back to back.
    """

    ctype: CType
    type_id: int
    size: int  # sizeof(ctype) on this architecture
    unit: CType
    unit_size: int
    repeat: int  # units per single ctype value
    cells: tuple[Cell, ...]  # cells of ONE unit
    cell_count: int  # len(cells)
    #: homogeneous dense primitive kind (cast as an array of it) or None
    flat_kind: Optional[str]
    #: True when the unit contains at least one pointer cell
    has_pointers: bool
    #: the fewest wire bytes one element's contents can occupy (every
    #: scalar at its wire width, every pointer a one-byte ``NULL``): what
    #: a restorer holds a record's claim against before it allocates
    wire_floor: int
    #: per cell of ONE unit, the wire type id a pointer cell's declared
    #: target implies for the block a ``BLOCK`` record reached through it
    #: describes (``None``: a scalar cell, or a target no block can have,
    #: ``void`` — such a record always carries its type)
    implied: tuple[Optional[int], ...]
    #: the compiled content plan, owned by :meth:`TITable.plan_for`
    plan: object = field(default=_UNCOMPILED, repr=False, compare=False)
    #: its per-cell reference, owned by :meth:`TITable.reference_for`
    reference: object = field(default=_UNCOMPILED, repr=False, compare=False)
    #: cached human-readable label (the attribution table's row key);
    #: ``str(ctype)`` computed once instead of per block visit
    _label: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def label(self) -> str:
        """The C declaration text of this type (cached)."""
        if self._label is None:
            self._label = str(self.ctype)
        return self._label

    def units_in(self, count: int) -> int:
        """Number of units in a block of *count* elements of this type."""
        return count * self.repeat

    def cells_in(self, count: int) -> int:
        """Number of primitive leaves in a block of *count* elements."""
        return count * self.repeat * self.cell_count

    def ordinal_to_byte(self, ordinal: int, count: int) -> int:
        """Byte offset of cell *ordinal* within a block of *count* elements."""
        total = self.cells_in(count)
        if ordinal == total:  # one past the end
            return self.units_in(count) * self.unit_size
        unit_idx, within = divmod(ordinal, self.cell_count)
        return unit_idx * self.unit_size + self.cells[within].offset

    def byte_to_ordinal(self, offset: int, count: int) -> int:
        """Cell ordinal of byte *offset* within a block of *count* elements."""
        if offset == self.units_in(count) * self.unit_size:
            return self.cells_in(count)
        unit_idx, within = divmod(offset, self.unit_size)
        lo, hi = 0, len(self.cells)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.cells[mid].offset < within:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self.cells) and self.cells[lo].offset == within:
            return unit_idx * self.cell_count + lo
        raise ValueError(
            f"byte offset {offset} in {self.ctype} does not address a cell "
            "(pointer into padding cannot be migrated)"
        )


class TITable:
    """All :class:`TypeInfo` records for one (program, architecture).

    Shared by every process of the program on that architecture — the
    table is a pure cache over the (immutable) type graph.
    """

    def __init__(self, program, layout: TypeLayout) -> None:
        self.program = program
        self.layout = layout
        self._infos: dict[int, TypeInfo] = {}
        # info_for memo: keyed on object identity, holding the type
        # object alive in the value so its id can never be recycled
        # (the poison scenario the layout's key-based memos avoid)
        self._by_identity: dict[int, tuple[CType, TypeInfo]] = {}
        #: set to False only by tests: every block then goes through the
        #: per-cell reference path, the oracle the plans are checked
        #: against.  Read once per pass, when a Collector/Restorer starts
        self.plans_enabled = True

    def info(self, type_id: int) -> TypeInfo:
        """The (cached) TypeInfo record for wire type id *type_id*."""
        ti = self._infos.get(type_id)
        if ti is None:
            if type_id > MAX_TYPE_ID:
                raise TypeIdError(
                    f"wire type id {type_id} does not fit a record's u16 type "
                    f"field: a migratable program has at most "
                    f"{MAX_TYPE_ID + 1} types"
                )
            ctype = self.program.type_by_id(type_id)
            unit, repeat = unit_of(ctype)
            cells = self.layout.cells(unit)
            ti = TypeInfo(
                ctype=ctype,
                type_id=type_id,
                size=self.layout.sizeof(ctype),
                unit=unit,
                unit_size=self.layout.sizeof(unit),
                repeat=repeat,
                cells=cells,
                cell_count=len(cells),
                flat_kind=flat_prim_kind(ctype, self.layout),
                has_pointers=any(c.kind == "ptr" for c in cells),
                wire_floor=repeat * sum(
                    1 if c.kind == "ptr" else xdr.wire_sizeof(c.kind) for c in cells
                ),
                implied=tuple(
                    None if c.target is None else self._registered_id(c.target)
                    for c in cells
                ),
            )
            self._infos[type_id] = ti
        return ti

    def _registered_id(self, ctype: CType) -> Optional[int]:
        """The wire type id of *ctype*, or ``None`` when the program
        registered none (``void``: no block has that type)."""
        try:
            return self.program.type_id(ctype)
        except KeyError:
            return None

    def info_for(self, ctype: CType) -> TypeInfo:
        """The TypeInfo record for *ctype* (must be registered).

        Memoized by object identity: the collector re-resolves the same
        block types once per ``BLOCK`` record, and recomputing the
        structural type key each time was a measurable share of
        collection time.
        """
        hit = self._by_identity.get(id(ctype))
        if hit is not None:
            return hit[1]
        info = self.info(self.program.type_id(ctype))
        self._by_identity[id(ctype)] = (ctype, info)
        return info

    def plan_for(self, info: TypeInfo):
        """The one saving/restoring function pair of *info*'s type on
        this architecture: a compiled plan (``None`` for a type without
        cells).  Compiled on first use, then cached on the record."""
        plan = info.plan
        if plan is _UNCOMPILED:
            plan = info.plan = compile_plan(info, self.layout)
        return plan

    def reference_for(self, info: TypeInfo):
        """The per-cell reference of :meth:`plan_for`'s answer, with the
        same interface: a :class:`~repro.msr.graphplan.CellRecord`, one
        ``Memory.load`` + ``xdr.encode`` (``xdr.decode`` +
        ``Memory.store``) per cell, whatever the type's shape (``None``
        for a type without cells).  What a pass runs when
        ``plans_enabled`` is off."""
        ref = info.reference
        if ref is _UNCOMPILED:
            ref = info.reference = CellRecord(info) if info.cells else None
        return ref
