"""Machine-independent primitive data representation (XDR layer).

The paper's layer 2: "XDR routines are used to translate primitive data
values such as char, int, float of a specific architecture into a
machine-independent format".

Our canonical wire format follows the spirit of Sun XDR (RFC 1014):
big-endian, two's-complement integers, IEEE 754 floats.  Unlike classic
XDR we do not pad everything to 4 bytes — each kind has a fixed canonical
width chosen to hold the value on *every* supported architecture (``long``
is 8 bytes on the wire because LP64 hosts exist):

=========  ============  =====================
kind       wire bytes    representation
=========  ============  =====================
char       1             signed 8-bit
uchar      1             unsigned 8-bit
short      2             signed 16-bit BE
ushort     2             unsigned 16-bit BE
int        4             signed 32-bit BE
uint       4             unsigned 32-bit BE
long       8             signed 64-bit BE
ulong      8             unsigned 64-bit BE
llong      8             signed 64-bit BE
ullong     8             unsigned 64-bit BE
float      4             IEEE 754 single BE
double     8             IEEE 754 double BE
=========  ============  =====================

Pointers never pass through this module: the collection library encodes
them as *(pointer header, offset)* pairs (see :mod:`repro.msr.collect`).

Scalar :func:`encode` / :func:`decode` (built on :mod:`struct`) are the
per-cell reference every compiled plan is checked against; the plans in
:mod:`repro.msr.graphplan` convert whole blocks through the same
representation as NumPy dtypes (:func:`wire_dtype`).
"""

from __future__ import annotations

import struct
from typing import Final

import numpy as np

__all__ = [
    "WIRE_SIZES",
    "wire_sizeof",
    "encode",
    "decode",
    "wire_dtype",
    "wire_struct_code",
]

# struct format char per kind (big-endian applied at pack time): the one
# table the wire representation is derived from
_STRUCT_FMT: Final[dict[str, str]] = {
    "char": "b",
    "uchar": "B",
    "short": "h",
    "ushort": "H",
    "int": "i",
    "uint": "I",
    "long": "q",
    "ulong": "Q",
    "llong": "q",
    "ullong": "Q",
    "float": "f",
    "double": "d",
}

_PACKERS: Final[dict[str, struct.Struct]] = {
    kind: struct.Struct(">" + fmt) for kind, fmt in _STRUCT_FMT.items()
}

#: Canonical on-the-wire byte width of every primitive kind.
WIRE_SIZES: Final[dict[str, int]] = {kind: p.size for kind, p in _PACKERS.items()}

# Big-endian NumPy dtype per kind (the compiled plans' casts).
_NP_DTYPE: Final[dict[str, np.dtype]] = {
    kind: np.dtype(">" + fmt) for kind, fmt in _STRUCT_FMT.items()
}

_INT_MASKS: Final[dict[str, tuple[int, int, bool]]] = {
    # kind -> (mask, sign bit, signed)
    kind: (
        (1 << (8 * WIRE_SIZES[kind])) - 1,
        1 << (8 * WIRE_SIZES[kind] - 1),
        _STRUCT_FMT[kind].islower(),
    )
    for kind in WIRE_SIZES
    if kind not in ("float", "double")
}


def wire_sizeof(kind: str) -> int:
    """Canonical wire width in bytes of primitive *kind*."""
    return WIRE_SIZES[kind]


def encode(kind: str, value: float | int) -> bytes:
    """Encode one primitive value into canonical wire bytes.

    Integer values are reduced modulo the wire width before packing, so a
    value already wrapped to a *narrower* source representation round-trips
    exactly, and out-of-range Python ints never raise.
    """
    packer = _PACKERS[kind]
    if kind in ("float", "double"):
        return packer.pack(value)
    mask, sign, signed = _INT_MASKS[kind]
    iv = int(value) & mask
    if signed and iv & sign:
        iv -= mask + 1
    return packer.pack(iv)


def decode(kind: str, data: bytes | memoryview, offset: int = 0) -> float | int:
    """Decode one primitive value from canonical wire bytes at *offset*."""
    return _PACKERS[kind].unpack_from(data, offset)[0]


def wire_struct_code(kind: str) -> str:
    """:mod:`struct` format character of *kind* on the wire (apply with
    the ``>`` byte-order prefix)."""
    return _STRUCT_FMT[kind]


def wire_dtype(kind: str) -> np.dtype:
    """Big-endian NumPy dtype matching the wire representation of *kind*."""
    return _NP_DTYPE[kind]
