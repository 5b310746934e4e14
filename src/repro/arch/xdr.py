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

Two code paths are provided, per the HPC guides' "vectorize the hot loop"
advice: scalar :func:`encode`/:func:`decode` built on :mod:`struct`, and
bulk :func:`encode_array`/:func:`decode_array` built on NumPy views, used
by the TI table's fast path for large pointer-free arrays (this is what
makes collecting an 8 MB linpack matrix cheap).
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
    "encode_array",
    "decode_array",
    "wire_dtype",
    "wire_struct_code",
    "host_struct_code",
    "host_np_dtype",
]

#: Canonical on-the-wire byte width of every primitive kind.
WIRE_SIZES: Final[dict[str, int]] = {
    "char": 1,
    "uchar": 1,
    "short": 2,
    "ushort": 2,
    "int": 4,
    "uint": 4,
    "long": 8,
    "ulong": 8,
    "llong": 8,
    "ullong": 8,
    "float": 4,
    "double": 8,
}

# struct format char per kind (big-endian applied at pack time).
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

# Big-endian numpy dtype per kind for the bulk path.
_NP_DTYPE: Final[dict[str, np.dtype]] = {
    "char": np.dtype(">i1"),
    "uchar": np.dtype(">u1"),
    "short": np.dtype(">i2"),
    "ushort": np.dtype(">u2"),
    "int": np.dtype(">i4"),
    "uint": np.dtype(">u4"),
    "long": np.dtype(">i8"),
    "ulong": np.dtype(">u8"),
    "llong": np.dtype(">i8"),
    "ullong": np.dtype(">u8"),
    "float": np.dtype(">f4"),
    "double": np.dtype(">f8"),
}

_PACKERS: Final[dict[str, struct.Struct]] = {
    kind: struct.Struct(">" + fmt) for kind, fmt in _STRUCT_FMT.items()
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


def encode_array(kind: str, values: np.ndarray) -> bytes:
    """Encode a 1-D array of primitives into canonical wire bytes (bulk path).

    *values* may be any NumPy array of a compatible numeric dtype; it is
    cast (with C-conversion semantics for integers) to the wire dtype and
    serialized big-endian in one vectorized operation.
    """
    wire = _NP_DTYPE[kind]
    arr = np.asarray(values)
    if arr.dtype != wire:
        # astype with the same-width int dtype wraps modulo 2^bits, which is
        # exactly C narrowing; widening sign-extends for signed kinds.
        arr = arr.astype(wire, casting="unsafe")
    return arr.tobytes()


def decode_array(kind: str, data: bytes | memoryview, count: int, offset: int = 0) -> np.ndarray:
    """Decode *count* primitives of *kind* from wire bytes (bulk path).

    One copy total: ``frombuffer`` is a zero-copy view directly into
    *data* at *offset* (no intermediate slice copy) and the single
    ``.copy()`` detaches the result so callers get a writable array that
    does not pin the wire buffer.  This is the bulk-restore hot path —
    every linpack matrix passes through here.
    """
    wire = _NP_DTYPE[kind]
    return np.frombuffer(data, dtype=wire, count=count, offset=offset).copy()


# -- host-side format tables (compiled plan support) ----------------------------
#
# The compiled plans in :mod:`repro.msr.graphplan` fuse many per-cell
# encode/decode calls into one NumPy (structured-)dtype cast.  That
# requires the *host* representation of each primitive kind — which,
# unlike the wire side, depends on the architecture (byte order,
# ``long``/pointer width, ``char`` signedness).

_HOST_CODE_FIXED: Final[dict[str, str]] = {
    "uchar": "B",
    "short": "h",
    "ushort": "H",
    "int": "i",
    "uint": "I",
    "llong": "q",
    "ullong": "Q",
    "float": "f",
    "double": "d",
}


def host_struct_code(kind: str, arch) -> str:
    """Host :mod:`struct` format character of *kind* on *arch* (apply with
    the architecture's byte-order prefix)."""
    if kind == "char":
        return "b" if arch.char_signed else "B"
    if kind == "long":
        return "q" if arch.long_size == 8 else "i"
    if kind == "ulong":
        return "Q" if arch.long_size == 8 else "I"
    if kind == "ptr":
        return "Q" if arch.ptr_size == 8 else "I"
    return _HOST_CODE_FIXED[kind]


def host_np_dtype(kind: str, arch) -> np.dtype:
    """Host-byte-order NumPy dtype of primitive *kind* on *arch* (matches
    :meth:`repro.vm.memory.Memory.np_dtype` without needing a Memory)."""
    code = host_struct_code(kind, arch)
    np_code = {"b": "i1", "B": "u1", "h": "i2", "H": "u2", "i": "i4",
               "I": "u4", "q": "i8", "Q": "u8", "f": "f4", "d": "f8"}[code]
    order = "<" if arch.byteorder == "little" else ">"
    return np.dtype(order + np_code)
