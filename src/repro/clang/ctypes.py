"""C type system with per-architecture layout.

Types are *architecture-neutral* descriptions; all layout questions
(``sizeof``, alignment, struct field offsets, padding) are answered by a
:class:`TypeLayout` bound to one :class:`~repro.arch.machine.MachineArch`.

The layout also provides the *flattened cell* view that the paper's
machine-independent pointer format relies on: every type is a sequence of
primitive leaf cells (scalars and pointers), and a pointer into a memory
block is encoded on the wire as *(block id, cell ordinal)*.  Cell ordinals
are architecture-independent (the *sequence* of leaves never changes, only
their byte offsets), which is exactly what makes the encoding portable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.arch.machine import MachineArch, PRIMITIVE_KINDS

__all__ = [
    "CType",
    "VoidType",
    "PrimType",
    "PointerType",
    "ArrayType",
    "StructType",
    "FuncType",
    "Cell",
    "TypeLayout",
    "LayoutError",
    "VOID",
    "CHAR",
    "UCHAR",
    "SHORT",
    "USHORT",
    "INT",
    "UINT",
    "LONG",
    "ULONG",
    "LLONG",
    "ULLONG",
    "FLOAT",
    "DOUBLE",
    "type_key",
]


class LayoutError(Exception):
    """A type cannot be laid out (e.g. incomplete struct used by value)."""


class CType:
    """Base class of all C types."""

    #: True for types a value can be loaded into a VM register from.
    is_scalar = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self}>"


class VoidType(CType):
    """The ``void`` type (only behind pointers or as a return type)."""

    _instance: Optional["VoidType"] = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class PrimType(CType):
    """A primitive arithmetic type, identified by its *kind* string."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in PRIMITIVE_KINDS or self.kind == "ptr":
            raise ValueError(f"bad primitive kind {self.kind!r}")

    is_scalar = True

    @property
    def is_float(self) -> bool:
        return self.kind in ("float", "double")

    @property
    def is_integer(self) -> bool:
        return not self.is_float

    def __str__(self) -> str:
        names = {
            "char": "char",
            "uchar": "unsigned char",
            "short": "short",
            "ushort": "unsigned short",
            "int": "int",
            "uint": "unsigned int",
            "long": "long",
            "ulong": "unsigned long",
            "llong": "long long",
            "ullong": "unsigned long long",
            "float": "float",
            "double": "double",
        }
        return names[self.kind]


@dataclass(frozen=True)
class PointerType(CType):
    """Pointer to *target* (which may be :class:`VoidType` or incomplete)."""

    target: CType

    is_scalar = True

    def __str__(self) -> str:
        return f"{self.target} *"


@dataclass(frozen=True)
class ArrayType(CType):
    """Fixed-length array of *elem*."""

    elem: CType
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("array length must be positive")

    def __str__(self) -> str:
        return f"{self.elem} [{self.length}]"


class StructType(CType):
    """A struct.  Self-referential structs are supported: create the type
    with ``fields=None`` (incomplete), then call :meth:`define`.

    Identity semantics: two struct types are the same type only if they are
    the same object (C's tag scoping, flattened to one global namespace).
    """

    def __init__(self, tag: str, fields: Optional[Sequence[tuple[str, CType]]] = None) -> None:
        self.tag = tag
        self._fields: Optional[tuple[tuple[str, CType], ...]] = None
        if fields is not None:
            self.define(fields)

    def define(self, fields: Sequence[tuple[str, CType]]) -> None:
        """Complete the struct with its field list (exactly once)."""
        if self._fields is not None:
            raise ValueError(f"struct {self.tag} redefined")
        seen: set[str] = set()
        for name, ftype in fields:
            if name in seen:
                raise ValueError(f"duplicate field {name!r} in struct {self.tag}")
            seen.add(name)
            if isinstance(ftype, VoidType) or isinstance(ftype, FuncType):
                raise ValueError(f"field {name!r} of struct {self.tag} has invalid type")
        self._fields = tuple(fields)

    @property
    def is_complete(self) -> bool:
        return self._fields is not None

    @property
    def fields(self) -> tuple[tuple[str, CType], ...]:
        if self._fields is None:
            raise LayoutError(f"struct {self.tag} is incomplete")
        return self._fields

    def field_type(self, name: str) -> CType:
        """Type of field *name* (raises KeyError if absent)."""
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        raise KeyError(f"struct {self.tag} has no field {name!r}")

    def __str__(self) -> str:
        return f"struct {self.tag}"


@dataclass(frozen=True)
class FuncType(CType):
    """A function signature (declarations only — no function pointers in
    the migration-safe subset)."""

    ret: CType
    params: tuple[CType, ...]

    def __str__(self) -> str:
        args = ", ".join(str(p) for p in self.params) or "void"
        return f"{self.ret} ({args})"


# Singleton primitive instances used throughout the code base.
VOID = VoidType()
CHAR = PrimType("char")
UCHAR = PrimType("uchar")
SHORT = PrimType("short")
USHORT = PrimType("ushort")
INT = PrimType("int")
UINT = PrimType("uint")
LONG = PrimType("long")
ULONG = PrimType("ulong")
LLONG = PrimType("llong")
ULLONG = PrimType("ullong")
FLOAT = PrimType("float")
DOUBLE = PrimType("double")


def type_key(ctype: CType) -> tuple:
    """A hashable, deterministic structural key for *ctype*.

    Used to assign stable type ids shared by source and destination hosts
    (both compile the same program, so keys — and therefore ids — match).
    Struct identity is by tag, which the parser keeps globally unique.
    """
    if isinstance(ctype, VoidType):
        return ("void",)
    if isinstance(ctype, PrimType):
        return ("prim", ctype.kind)
    if isinstance(ctype, PointerType):
        return ("ptr", type_key(ctype.target))
    if isinstance(ctype, ArrayType):
        return ("arr", type_key(ctype.elem), ctype.length)
    if isinstance(ctype, StructType):
        return ("struct", ctype.tag)
    if isinstance(ctype, FuncType):
        return ("func", type_key(ctype.ret), tuple(type_key(p) for p in ctype.params))
    raise TypeError(f"unknown ctype {ctype!r}")


@dataclass(frozen=True, slots=True)
class Cell:
    """One primitive leaf of a flattened type.

    ``offset`` is the byte offset within the enclosing type *on the layout's
    architecture*; ``kind`` is a primitive kind string (``"ptr"`` for
    pointers); ``target`` is the static pointee type for pointer cells.
    """

    offset: int
    kind: str
    target: Optional[CType] = None


class TypeLayout:
    """Answers layout questions for one architecture, with memoization.

    One instance per (program, architecture) pair; all methods are pure
    functions of the type graph and are cached.
    """

    def __init__(self, arch: MachineArch) -> None:
        self.arch = arch
        # All memo tables are keyed on the *structural* type key, never on
        # object identity: temporary type objects may be garbage collected
        # and their ids reused, which would poison an id()-keyed cache.
        self._size: dict[tuple, int] = {}
        self._align: dict[tuple, int] = {}
        self._cells: dict[tuple, tuple[Cell, ...]] = {}
        self._field_offsets: dict[tuple, dict[str, int]] = {}
        self._memo_guard: set[tuple] = set()

    # -- size and alignment ------------------------------------------------

    def sizeof(self, ctype: CType) -> int:
        """``sizeof(ctype)`` on this architecture (with struct padding)."""
        key = type_key(ctype)
        size = self._size.get(key)
        if size is None:
            self._compute(ctype)
            size = self._size[key]
        return size

    def alignof(self, ctype: CType) -> int:
        """Alignment requirement of *ctype* on this architecture."""
        key = type_key(ctype)
        align = self._align.get(key)
        if align is None:
            self._compute(ctype)
            align = self._align[key]
        return align

    def field_offset(self, stype: StructType, name: str) -> int:
        """Byte offset of struct field *name* on this architecture."""
        key = type_key(stype)
        table = self._field_offsets.get(key)
        if table is None:
            self._compute(stype)
            table = self._field_offsets[key]
        return table[name]

    def _compute(self, ctype: CType) -> None:
        key = type_key(ctype)
        if key in self._memo_guard:
            raise LayoutError(f"type {ctype} contains itself by value")
        self._memo_guard.add(key)
        try:
            if isinstance(ctype, PrimType):
                size = self.arch.sizeof(ctype.kind)
                align = self.arch.alignof(ctype.kind)
            elif isinstance(ctype, PointerType):
                size = self.arch.sizeof("ptr")
                align = self.arch.alignof("ptr")
            elif isinstance(ctype, ArrayType):
                esize = self.sizeof(ctype.elem)
                align = self.alignof(ctype.elem)
                size = esize * ctype.length
            elif isinstance(ctype, StructType):
                offset = 0
                align = 1
                table: dict[str, int] = {}
                for fname, ftype in ctype.fields:
                    falign = self.alignof(ftype)
                    align = max(align, falign)
                    offset = _align_up(offset, falign)
                    table[fname] = offset
                    offset += self.sizeof(ftype)
                size = _align_up(offset, align) if offset else align  # empty structs: 1 unit
                self._field_offsets[key] = table
            elif isinstance(ctype, VoidType):
                raise LayoutError("void has no size")
            elif isinstance(ctype, FuncType):
                raise LayoutError("function types have no size")
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown ctype {ctype!r}")
        finally:
            self._memo_guard.discard(key)
        self._size[key] = size
        self._align[key] = align

    # -- flattened cells -----------------------------------------------------

    def cells(self, ctype: CType) -> tuple[Cell, ...]:
        """The flattened primitive leaves of *ctype*, in declaration order.

        The *sequence* of kinds is architecture-independent; only the byte
        offsets differ between architectures.
        """
        key = type_key(ctype)
        out = self._cells.get(key)
        if out is None:
            out = tuple(self._iter_cells(ctype, 0))
            self._cells[key] = out
        return out

    def _iter_cells(self, ctype: CType, base: int) -> Iterator[Cell]:
        if isinstance(ctype, PrimType):
            yield Cell(base, ctype.kind)
        elif isinstance(ctype, PointerType):
            yield Cell(base, "ptr", ctype.target)
        elif isinstance(ctype, ArrayType):
            stride = self.sizeof(ctype.elem)
            elem_cells = self.cells(ctype.elem)
            for i in range(ctype.length):
                off = base + i * stride
                for c in elem_cells:
                    yield Cell(off + c.offset, c.kind, c.target)
        elif isinstance(ctype, StructType):
            for fname, ftype in ctype.fields:
                foff = self.field_offset(ctype, fname)
                yield from self._iter_cells(ftype, base + foff)
        else:
            raise LayoutError(f"type {ctype} has no cells")


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)
