"""Segmented byte-addressable simulated memory.

One :class:`Memory` instance is the address space of one simulated process.
It has the three segments the paper's Figure 1 shows — global, heap, and
stack — at the base addresses given by the host's
:class:`~repro.arch.machine.MachineArch`.  All multi-byte values are stored
with the host's byte order and sizes, so the bytes in this memory are
genuinely architecture-specific: migrating them to a host with different
endianness without conversion would corrupt every value, which is exactly
the problem the paper's XDR/TI machinery solves.

Segments are *windowed*: only the touched address range is materialized
(a stack that lives at the top of a 128 MiB segment costs kilobytes, not
the whole segment).  A simple first-fit-by-size-class allocator backs
``malloc``/``free``.  Bulk access is a byte view over a window
(:meth:`Memory.view` / :meth:`Memory.write_view`), which the content
plans read and fill through NumPy in one pass.
"""

from __future__ import annotations

import functools
import struct
from typing import Final, NamedTuple

import numpy as np

from repro.arch.machine import MachineArch

__all__ = ["HostKinds", "Memory", "MemoryFault", "Segment", "host_kinds"]


class MemoryFault(Exception):
    """Invalid simulated memory access (the equivalent of SIGSEGV)."""


#: host struct code per kind; plain ``char``, ``long``, ``ulong`` and
#: ``ptr`` are the data model's (:func:`host_kinds`)
_STRUCT_CODE: Final[dict[str, str]] = {
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


class HostKinds(NamedTuple):
    """The host representation of every primitive kind in one data model
    (byte order, plain ``char`` signedness, ``long`` and pointer width)."""

    #: ``struct`` format character (apply with the byte-order prefix)
    codes: dict[str, str]
    packers: dict[str, struct.Struct]
    #: the interpreter's inline-path pairs ``kind -> (bound unpack_from
    #: | pack_into, size)``
    unpack: dict[str, tuple]
    pack: dict[str, tuple]
    #: NumPy dtype, byte order included
    dtypes: dict[str, np.dtype]


@functools.cache
def _host_kinds(byteorder: str, char_signed: bool, long_size: int, ptr_size: int) -> HostKinds:
    order = "<" if byteorder == "little" else ">"
    codes = dict(
        _STRUCT_CODE,
        char="b" if char_signed else "B",
        long="q" if long_size == 8 else "i",
        ulong="Q" if long_size == 8 else "I",
        ptr="Q" if ptr_size == 8 else "I",
    )
    packers = {kind: struct.Struct(order + code) for kind, code in codes.items()}
    return HostKinds(
        codes,
        packers,
        {k: (p.unpack_from, p.size) for k, p in packers.items()},
        {k: (p.pack_into, p.size) for k, p in packers.items()},
        # numpy reads the struct codes as its own type characters
        {kind: np.dtype(order + code) for kind, code in codes.items()},
    )


def host_kinds(arch: MachineArch) -> HostKinds:
    """The per-kind codecs of *arch*'s data model, built once per model
    and shared read-only by every :class:`Memory` of it and by the
    compiled content plans."""
    return _host_kinds(arch.byteorder, arch.char_signed, arch.long_size, arch.ptr_size)


#: heap allocation granularity / alignment
_HEAP_ALIGN = 8
#: window growth slack (amortizes repeated extension)
_SLACK = 65536


class Segment:
    """One address range, backed by a window over the touched sub-range.

    ``window_start`` is the absolute address of ``buf[0]``.  The window
    grows in either direction on demand (stacks grow down, heaps up),
    and only through :meth:`ensure`: every entry point of
    :class:`Memory` that reads or writes bytes reaches it through
    :meth:`offset` (``zero`` wipes only what is already materialized).
    """

    __slots__ = ("name", "base", "limit", "window_start", "buf")

    def __init__(self, name: str, base: int, size: int) -> None:
        self.name = name
        self.base = base
        self.limit = base + size
        self.window_start = base
        self.buf = bytearray()

    def ensure(self, addr: int, n: int) -> int:
        """Materialize ``[addr, addr+n)``; return the buffer offset of *addr*.

        The one growth rule: a first touch opens the window at *addr*
        (a stack's reaches ``_SLACK`` below it) and ``_SLACK`` past the
        span; growing up at least doubles the window, plus ``_SLACK``;
        growing down reaches ``_SLACK`` below *addr*.  New bytes are
        zeros, and the window never leaves the segment."""
        end = addr + n
        if addr < self.base or end > self.limit:
            raise MemoryFault(
                f"access [{addr:#x}, {end:#x}) outside segment {self.name} "
                f"[{self.base:#x}, {self.limit:#x})"
            )
        ws = self.window_start
        we = ws + len(self.buf)
        if not self.buf:
            start = max(self.base, addr - _SLACK if self.name == "stack" else addr)
            stop = min(self.limit, end + _SLACK)
            self.window_start = start
            self.buf = bytearray(stop - start)
        else:
            if addr < ws:
                start = max(self.base, addr - _SLACK)
                self.buf[:0] = bytes(ws - start)
                self.window_start = start
            if end > we:
                stop = min(self.limit, max(end, we + len(self.buf)) + _SLACK)
                self.buf += bytes(stop - we)
        return addr - self.window_start

    def offset(self, addr: int, n: int) -> int:
        """Buffer offset of *addr* when ``[addr, addr+n)`` is materialized,
        else materialize it first."""
        off = addr - self.window_start
        if off >= 0 and off + n <= len(self.buf):
            return off
        return self.ensure(addr, n)


class Memory:
    """The simulated address space of one process on one architecture."""

    def __init__(self, arch: MachineArch) -> None:
        self.arch = arch
        segs = arch.segments()
        gbase, gsize = segs["global"]
        hbase, hsize = segs["heap"]
        sbase, ssize = segs["stack"]
        self.global_seg = Segment("global", gbase, gsize)
        self.heap_seg = Segment("heap", hbase, hsize)
        self.stack_seg = Segment("stack", sbase, ssize)
        self._segments = (self.stack_seg, self.heap_seg, self.global_seg)

        # stack pointer starts at the top of the stack segment, grows down
        self.sp = self.stack_seg.limit
        # heap bump pointer and size-class free lists
        self._heap_brk = hbase
        self._free: dict[int, list[int]] = {}
        #: live heap allocations: addr -> padded size
        self.heap_allocs: dict[int, int] = {}

        kinds = host_kinds(arch)
        self._packers, self._unpack, self._pack = kinds.packers, kinds.unpack, kinds.pack

        #: pre-copy write barrier: when a DirtyTracker is installed here,
        #: every mutating entry point reports its written byte range.
        #: None (the default) keeps the store paths barrier-free.
        self.dirty = None

    # -- address translation -------------------------------------------------

    def segment_of(self, addr: int) -> Segment:
        """The segment containing *addr* (raises :class:`MemoryFault`)."""
        for seg in self._segments:
            if seg.base <= addr < seg.limit:
                return seg
        if addr == 0:
            raise MemoryFault("NULL pointer dereference")
        raise MemoryFault(f"address {addr:#x} is outside every segment")

    # -- scalar access ----------------------------------------------------------

    def load(self, kind: str, addr: int) -> int | float:
        """Read one primitive of *kind* at *addr* (host byte order/width)."""
        packer = self._packers[kind]
        seg = self.segment_of(addr)
        off = seg.offset(addr, packer.size)
        return packer.unpack_from(seg.buf, off)[0]

    def store(self, kind: str, addr: int, value: int | float) -> None:
        """Write one primitive of *kind* at *addr* (wraps integers to width)."""
        packer = self._packers[kind]
        seg = self.segment_of(addr)
        off = seg.offset(addr, packer.size)
        if self.dirty is not None:
            self.dirty.mark(addr, packer.size)
        if kind not in ("float", "double"):
            bits = packer.size * 8
            iv = int(value) & ((1 << bits) - 1)
            if packer.format[-1:].islower() and iv >= 1 << (bits - 1):
                iv -= 1 << bits
            packer.pack_into(seg.buf, off, iv)
        else:
            packer.pack_into(seg.buf, off, value)

    # -- bulk access -------------------------------------------------------------

    def read_bytes(self, addr: int, n: int) -> bytes:
        """Copy *n* raw bytes starting at *addr*."""
        seg = self.segment_of(addr)
        off = seg.offset(addr, n)
        return bytes(seg.buf[off : off + n])

    def write_bytes(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Write raw bytes at *addr*, materializing the span first as
        every entry point does (:meth:`Segment.ensure`)."""
        n = len(data)
        seg = self.segment_of(addr)
        off = seg.offset(addr, n)
        if self.dirty is not None:
            self.dirty.mark(addr, n)
        seg.buf[off : off + n] = data

    def view(self, addr: int, n: int) -> memoryview:
        """Zero-copy view of *n* bytes at *addr* (valid until the segment
        window grows)."""
        seg = self.segment_of(addr)
        off = seg.offset(addr, n)
        return memoryview(seg.buf)[off : off + n]

    def write_view(self, addr: int, n: int) -> memoryview:
        """Writable view of ``[addr, addr+n)``, materializing the span
        if needed — bulk restores fill it straight from the wire with no
        intermediate buffer (same validity rule as :meth:`view`)."""
        seg = self.segment_of(addr)
        off = seg.offset(addr, n)
        if self.dirty is not None:
            self.dirty.mark(addr, n)
        return memoryview(seg.buf)[off : off + n]

    def zero(self, addr: int, n: int) -> None:
        """Zero *n* bytes at *addr*.

        Window materialization already yields zero bytes, so only the
        overlap with the previously-materialized window needs an
        explicit wipe — zeroing a fresh range (globals at load, frame
        pushes, heap carves) writes nothing at all and leaves the range
        unmaterialized; it reads as zeros whenever the window later
        grows over it."""
        if n <= 0:
            return
        if self.dirty is not None:
            # zeroing is a semantic write even when it leaves the range
            # unmaterialized (the bytes change from "whatever was live"
            # to zero as far as any later reader is concerned)
            self.dirty.mark(addr, n)
        seg = self.segment_of(addr)
        end = addr + n
        if end > seg.limit:
            raise MemoryFault(
                f"access [{addr:#x}, {end:#x}) outside segment {seg.name} "
                f"[{seg.base:#x}, {seg.limit:#x})"
            )
        lo = max(addr, seg.window_start)
        hi = min(end, seg.window_start + len(seg.buf))
        if lo < hi:
            off = lo - seg.window_start
            seg.buf[off : off + (hi - lo)] = bytes(hi - lo)

    # -- stack -------------------------------------------------------------------

    def stack_alloc(self, size: int, align: int = 8) -> int:
        """Push an activation record of *size* bytes; returns its base.

        Materialization is deferred to the first access (usually the
        caller's ``zero``): a frame in never-touched stack space then
        costs one window growth and no wipe, while a reused region —
        already inside the window — still gets explicitly zeroed."""
        new_sp = (self.sp - size) & ~(align - 1)
        if new_sp < self.stack_seg.base:
            raise MemoryFault("simulated stack overflow")
        self.sp = new_sp
        return new_sp

    def stack_restore(self, sp: int) -> None:
        """Pop back to a previously saved stack pointer."""
        if not (self.stack_seg.base <= sp <= self.stack_seg.limit):
            raise MemoryFault(f"bad stack pointer {sp:#x}")
        self.sp = sp

    # -- heap --------------------------------------------------------------------

    def heap_alloc(self, size: int) -> int:
        """``malloc``: returns an 8-aligned address; size 0 behaves as 1."""
        addr = self.heap_carve(size)
        self.heap_seg.offset(addr, self.heap_allocs[addr])  # materialize the span
        return addr

    def heap_carve(self, size: int, n: int = 1) -> int | None:
        """The allocation decision of ``malloc`` without the window:
        carve *n* blocks of *size* bytes and return the address of the
        first (block *k* is at ``base + k * heap_size_of(base)``).

        One block comes off the size-class free list when that holds
        one, else off the brk.  *n* > 1 blocks are contiguous, which only
        the brk can promise: ``None`` when the free list is non-empty,
        because *n* single carves would recycle those addresses first
        and restoration must assign exactly the addresses they would
        (address parity keeps re-collection after a restore
        byte-identical).  Materialization is left to the first access
        (:meth:`Segment.ensure`), so a batch of *n* carves grows the
        window once, when the restore writes it.
        """
        # strictly more than *size*: the slack a chunk header takes in a
        # real malloc, so the end of one block is never the start of another
        stride = (size + _HEAP_ALIGN) & -_HEAP_ALIGN
        allocs = self.heap_allocs
        bucket = self._free.get(stride)
        if bucket:
            if n != 1:
                return None
            base = bucket.pop()
            allocs[base] = stride
            return base
        base = self._heap_brk
        end = base + stride * n
        if end > self.heap_seg.limit:
            raise MemoryFault("simulated heap exhausted")
        self._heap_brk = end
        if n == 1:
            allocs[base] = stride  # the restorer's per-node carve: no loop
        else:
            for addr in range(base, end, stride):
                allocs[addr] = stride
        return base

    def heap_free(self, addr: int) -> None:
        """``free``: recycle an allocation (NULL is a no-op, as in C)."""
        if addr == 0:
            return
        size = self.heap_allocs.pop(addr, None)
        if size is None:
            raise MemoryFault(f"free of non-allocated address {addr:#x}")
        self._free.setdefault(size, []).append(addr)

    def heap_size_of(self, addr: int) -> int:
        """Padded size of the live heap allocation at *addr*."""
        try:
            return self.heap_allocs[addr]
        except KeyError:
            raise MemoryFault(f"{addr:#x} is not a live heap allocation") from None
