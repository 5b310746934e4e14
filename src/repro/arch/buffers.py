"""Byte buffers with accounting for the migration wire format.

The collection library serializes into a :class:`WriteBuffer` and the
restoration library consumes a :class:`ReadBuffer`.  Both keep simple
byte accounting that the benchmark harness reports —
Table 1's ``Tx`` column is computed from ``WriteBuffer.nbytes`` and the
modeled link.  A payload is read only once it is whole: a reader's one
window is the whole payload, and its end is the payload's end.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["WriteBuffer", "ReadBuffer"]

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


class WriteBuffer:
    """Append-only binary buffer.

    All multi-byte fields are big-endian (matching the XDR layer).
    """

    __slots__ = ("_buf",)

    def __init__(self, storage: bytearray | None = None) -> None:
        #: where the bytes go: a fresh bytearray, or the caller's empty
        #: one (of a subclass :meth:`detach` is to hand back)
        self._buf = bytearray() if storage is None else storage

    # -- writers ----------------------------------------------------------

    def write(self, data: bytes | bytearray | memoryview) -> None:
        """Append raw bytes."""
        self._buf += data

    def write_u8(self, value: int) -> None:
        self._buf += _U8.pack(value)

    def write_u16(self, value: int) -> None:
        self._buf += _U16.pack(value)

    def write_u32(self, value: int) -> None:
        self._buf += _U32.pack(value)

    def write_ndarray(self, values: np.ndarray, dtype: np.dtype) -> None:
        """Append *values* converted to *dtype*: one casting pass into
        fresh storage, then one append of it (no zero-filled placeholder
        is appended first to cast over).

        Conversion semantics match ``xdr.encode_array``: the cast is
        C-style (narrowing wraps modulo 2^bits, widening sign-extends),
        which is exactly what ``astype(..., casting="unsafe")`` does.
        """
        self._buf += np.asarray(values).astype(dtype, casting="unsafe").data

    def detach(self) -> bytearray:
        """Remove and return the storage itself; the buffer continues on
        fresh storage, so what was detached is never written again."""
        detached = self._buf
        self._buf = bytearray()
        return detached

    # -- accessors ---------------------------------------------------------

    @property
    def storage(self) -> bytearray:
        """The live storage, for a writer that appends many small records
        in one go (``storage += data`` is :meth:`write` without the
        call).  Fetch it again after a :meth:`detach`."""
        return self._buf

    @property
    def nbytes(self) -> int:
        """Total bytes written so far."""
        return len(self._buf)

    def getvalue(self) -> bytes:
        """Immutable snapshot of the buffer contents."""
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class ReadBuffer:
    """Sequential reader over bytes produced by :class:`WriteBuffer`.

    The payload is ``window`` (a ``memoryview``, the whole of it) and
    the read offset in it is ``cursor``.  Every reader below consumes
    from the window; a read past its end is an underrun
    (:meth:`need` raises ``EOFError``).

    A hot loop may read the same way with its own copy of the cursor
    (the restorer's record walk does): ``Struct.unpack_from(window,
    cursor)`` per record, :meth:`need` where a read would pass the
    end, and the cursor handed back (``buf.cursor = cursor``) before it
    calls anything else that reads the buffer — taking ``cursor`` up
    again after.
    """

    __slots__ = ("window", "cursor")

    def __init__(self, data: bytes | bytearray | memoryview) -> None:
        self.window = memoryview(data)
        self.cursor = 0

    def need(self, cursor: int, n: int) -> None:
        """The underrun check: hand the read offset back at *cursor* and
        raise ``EOFError`` if fewer than *n* bytes are left there."""
        self.cursor = cursor
        have = len(self.window) - cursor
        if n > have:
            raise EOFError(
                f"wire buffer underrun: need {n} bytes at {cursor}, have {have}"
            )

    def _take(self, n: int) -> int:
        """Consume *n* bytes; their offset in the window."""
        pos = self.cursor
        if pos + n > len(self.window):
            self.need(pos, n)
        self.cursor = pos + n
        return pos

    # -- readers ----------------------------------------------------------

    def read(self, n: int) -> memoryview:
        """Consume and return the next *n* raw bytes."""
        pos = self._take(n)
        return self.window[pos : pos + n]

    def readinto(self, dest) -> None:
        """Consume ``len(dest)`` bytes straight into writable buffer
        *dest* — the zero-intermediate twin of :meth:`read` for bulk
        restores that already know their destination memory."""
        dest = memoryview(dest)
        n = len(dest)
        pos = self._take(n)
        dest[:] = self.window[pos : pos + n]

    def unpack(self, fmt) -> tuple:
        """Consume ``fmt.size`` bytes and return ``fmt.unpack_from`` of
        them — one call per fixed-layout record, no intermediate slice.
        *fmt* is a :class:`struct.Struct` (or anything with its ``size``
        and ``unpack_from``)."""
        pos = self._take(fmt.size)
        return fmt.unpack_from(self.window, pos)

    def read_u8(self) -> int:
        pos = self._take(1)
        return self.window[pos]

    def read_u16(self) -> int:
        return self.unpack(_U16)[0]

    def read_u32(self) -> int:
        return self.unpack(_U32)[0]

    def peek_u8(self) -> int:
        """Return the next u8 without consuming it."""
        pos = self.cursor
        if pos >= len(self.window):
            self.need(pos, 1)
        return self.window[pos]

    def buffered(self) -> memoryview:
        """Zero-copy view of the rest of the payload, *without consuming
        it*.  Bulk decoders parse speculatively from this view and
        commit via :meth:`read`."""
        return self.window[self.cursor :]

    # -- state ------------------------------------------------------------

    @property
    def position(self) -> int:
        """Current read offset."""
        return self.cursor

    @property
    def remaining(self) -> int:
        """Bytes left to read."""
        return len(self.window) - self.cursor

    def at_end(self) -> bool:
        """Whether the whole buffer has been consumed."""
        return self.cursor == len(self.window)

    def holds(self, n: int) -> bool:
        """Whether *n* more bytes can be read.  A record that claims more
        contents than that is refused before anything is allocated for
        it."""
        return n <= len(self.window) - self.cursor
