"""Machine architecture specifications.

A :class:`MachineArch` captures everything about a host that affects the
in-memory representation of a C process: byte order, primitive type sizes,
alignment rules, and the layout of the simulated address space (global,
heap, and stack segments).

The paper migrates processes between a DEC 5000/120 (little-endian MIPS
running Ultrix) and a SUN SPARC 20 (big-endian, Solaris 2.5), and runs its
homogeneous timing experiments on SUN Ultra 5 machines.  Presets for all of
those are provided, plus 64-bit architectures (Alpha, x86-64) so that
migrations can also cross word sizes, not just endianness.

Primitive *kinds* used throughout the code base (the mini-C front end maps
C type specifiers onto these):

``char uchar short ushort int uint long ulong llong ullong float double ptr``
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

__all__ = [
    "Endian",
    "MachineArch",
    "PRIMITIVE_KINDS",
    "INT_KINDS",
    "FLOAT_KINDS",
    "SIGNED_KINDS",
    "UNSIGNED_KINDS",
    "DEC5000",
    "SPARC20",
    "ULTRA5",
    "ALPHA",
    "X86",
    "X86_64",
    "ARCH_PRESETS",
    "MACHINES",
]


class Endian(str, enum.Enum):
    """Byte order of a host."""

    LITTLE = "little"
    BIG = "big"


#: All primitive value kinds understood by the VM and the TI table.
PRIMITIVE_KINDS = (
    "char",
    "uchar",
    "short",
    "ushort",
    "int",
    "uint",
    "long",
    "ulong",
    "llong",
    "ullong",
    "float",
    "double",
    "ptr",
)

INT_KINDS = frozenset(
    ("char", "uchar", "short", "ushort", "int", "uint", "long", "ulong", "llong", "ullong")
)
FLOAT_KINDS = frozenset(("float", "double"))
SIGNED_KINDS = frozenset(("char", "short", "int", "long", "llong"))
UNSIGNED_KINDS = frozenset(("uchar", "ushort", "uint", "ulong", "ullong"))

# Sizes that never vary across the architectures we model.
_FIXED_SIZES = {
    "char": 1,
    "uchar": 1,
    "short": 2,
    "ushort": 2,
    "int": 4,
    "uint": 4,
    "llong": 8,
    "ullong": 8,
    "float": 4,
    "double": 8,
}


@dataclass(frozen=True)
class MachineArch:
    """Description of one host architecture.

    Parameters
    ----------
    name:
        Human-readable identifier (``"sparc20"`` ...).
    endian:
        Byte order of in-memory multi-byte values.
    long_size:
        ``sizeof(long)`` — 4 on ILP32 systems, 8 on LP64 systems.
    ptr_size:
        ``sizeof(T*)`` — 4 or 8.
    max_align:
        Upper bound applied to every natural alignment (x86/i386 famously
        aligns ``double`` to 4 bytes; model that with ``max_align=4``).
    char_signed:
        Whether plain ``char`` is signed (true on x86, false on some RISC
        ABIs; affects value decoding of ``char`` cells).
    global_base / heap_base / stack_base:
        Segment base addresses of the simulated address space.  The stack
        grows *down* from ``stack_base``.  Differ between presets so that
        raw addresses are never accidentally portable between hosts.
    segment_size:
        Size of each segment in bytes.
    """

    name: str
    endian: Endian
    long_size: int = 4
    ptr_size: int = 4
    max_align: int = 8
    char_signed: bool = True
    global_base: int = 0x1000_0000
    heap_base: int = 0x4000_0000
    stack_base: int = 0x7FFF_0000
    segment_size: int = 0x0800_0000  # 128 MiB per segment
    description: str = ""

    def __post_init__(self) -> None:
        if self.long_size not in (4, 8):
            raise ValueError(f"long_size must be 4 or 8, got {self.long_size}")
        if self.ptr_size not in (4, 8):
            raise ValueError(f"ptr_size must be 4 or 8, got {self.ptr_size}")
        if self.max_align & (self.max_align - 1):
            raise ValueError("max_align must be a power of two")

    # -- primitive layout ------------------------------------------------

    def sizeof(self, kind: str) -> int:
        """Size in bytes of a primitive *kind* on this architecture."""
        size = _FIXED_SIZES.get(kind)
        if size is not None:
            return size
        if kind in ("long", "ulong"):
            return self.long_size
        if kind == "ptr":
            return self.ptr_size
        raise KeyError(f"unknown primitive kind: {kind!r}")

    def alignof(self, kind: str) -> int:
        """Alignment in bytes of a primitive *kind* (natural, capped)."""
        return min(self.sizeof(kind), self.max_align)

    def is_signed(self, kind: str) -> bool:
        """Whether integer *kind* is signed on this architecture."""
        if kind == "char":
            return self.char_signed
        if kind in SIGNED_KINDS:
            return True
        if kind in UNSIGNED_KINDS or kind == "ptr":
            return False
        raise KeyError(f"not an integer kind: {kind!r}")

    def bit_width(self, kind: str) -> int:
        """Bit width of integer/pointer *kind* on this architecture."""
        return 8 * self.sizeof(kind)

    # -- address space ---------------------------------------------------

    @property
    def byteorder(self) -> str:
        """``"little"`` or ``"big"`` — suitable for :func:`int.from_bytes`."""
        return self.endian.value

    def segments(self) -> Mapping[str, tuple[int, int]]:
        """Mapping of segment name to ``(base, size)``.

        The stack segment's *base* is its lowest address; the stack pointer
        starts at ``base + size`` and grows down.
        """
        return MappingProxyType(
            {
                "global": (self.global_base, self.segment_size),
                "heap": (self.heap_base, self.segment_size),
                "stack": (self.stack_base - self.segment_size, self.segment_size),
            }
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        bits = 64 if self.ptr_size == 8 else 32
        return f"{self.name} ({bits}-bit, {self.endian.value}-endian)"


# ---------------------------------------------------------------------------
# Presets.  Segment bases are deliberately different per machine so that a
# raw address from one host is essentially never valid on another — pointer
# translation through the MSRLT is the only way to survive a migration.
# ---------------------------------------------------------------------------

#: DEC 5000/120 — MIPS R3000 running Ultrix (paper's migration source).
DEC5000 = MachineArch(
    name="dec5000",
    endian=Endian.LITTLE,
    long_size=4,
    ptr_size=4,
    max_align=8,
    char_signed=True,
    global_base=0x1000_0000,
    heap_base=0x3000_0000,
    stack_base=0x7FFF_8000,
    description="DEC 5000/120, MIPS R3000, Ultrix (little-endian ILP32)",
)

#: SUN SPARC 20 running Solaris 2.5 (paper's migration destination).
SPARC20 = MachineArch(
    name="sparc20",
    endian=Endian.BIG,
    long_size=4,
    ptr_size=4,
    max_align=8,
    char_signed=True,
    global_base=0x0002_0000,
    heap_base=0x2000_0000,
    stack_base=0xEFFF_F000,
    description="SUN SPARC 20, Solaris 2.5 (big-endian ILP32)",
)

#: SUN Ultra 5 — UltraSPARC IIi in 32-bit mode (paper's homogeneous testbed).
ULTRA5 = MachineArch(
    name="ultra5",
    endian=Endian.BIG,
    long_size=4,
    ptr_size=4,
    max_align=8,
    char_signed=True,
    global_base=0x0001_0000,
    heap_base=0x2400_0000,
    stack_base=0xFFBF_0000,
    description="SUN Ultra 5, UltraSPARC IIi, Solaris (big-endian ILP32)",
)

#: DEC Alpha — LP64 little-endian, for 32↔64-bit migration experiments.
ALPHA = MachineArch(
    name="alpha",
    endian=Endian.LITTLE,
    long_size=8,
    ptr_size=8,
    max_align=8,
    char_signed=False,
    global_base=0x0000_0001_2000_0000,
    heap_base=0x0000_0002_0000_0000,
    stack_base=0x0000_0001_1000_0000,
    description="DEC Alpha, Digital UNIX (little-endian LP64)",
)

#: Classic i386 — double aligned to 4 bytes (exercises padding conversion).
X86 = MachineArch(
    name="x86",
    endian=Endian.LITTLE,
    long_size=4,
    ptr_size=4,
    max_align=4,
    char_signed=True,
    global_base=0x0804_8000,
    heap_base=0x4000_0000,
    stack_base=0xBFFF_F000,
    description="Intel i386, Linux (little-endian ILP32, 4-byte max align)",
)

#: Modern x86-64 LP64.
X86_64 = MachineArch(
    name="x86_64",
    endian=Endian.LITTLE,
    long_size=8,
    ptr_size=8,
    max_align=8,
    char_signed=True,
    global_base=0x0000_0000_0040_0000,
    heap_base=0x0000_0000_4000_0000,
    stack_base=0x0000_7FFF_F000_0000,
    description="x86-64, Linux (little-endian LP64)",
)

#: The modeled fleet, in canonical order: every preset a process can
#: roam between.  Ordered pairs drawn from this tuple are the standard
#: coverage matrix of the differential-migration harness
#: (:mod:`repro.difftest`), spanning endianness (DEC5000 vs SPARC20),
#: word size (32 vs 64 bit, both directions), alignment (X86's 4-byte
#: ``double``), and ``char`` signedness (ALPHA's unsigned ``char``).
MACHINES: tuple[MachineArch, ...] = (DEC5000, SPARC20, ULTRA5, ALPHA, X86, X86_64)

#: All presets by name.
ARCH_PRESETS: Mapping[str, MachineArch] = MappingProxyType(
    {a.name: a for a in MACHINES}
)
