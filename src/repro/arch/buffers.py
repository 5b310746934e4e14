"""Byte buffers with accounting for the migration wire format.

The collection library serializes into a :class:`WriteBuffer` and the
restoration library consumes a :class:`ReadBuffer`.  Both keep simple
byte accounting that the benchmark harness reports —
Table 1's ``Tx`` column is computed from ``WriteBuffer.nbytes`` and the
modeled link.

For the streaming pipeline, :meth:`WriteBuffer.drain` lets a producer
peel off fixed-size chunks while collection is still appending, and
:class:`StreamReadBuffer` presents an iterator of such chunks through
the ordinary :class:`ReadBuffer` interface, so the restorer consumes a
partially-arrived payload without knowing it is partial.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Iterable, Iterator

import numpy as np

__all__ = ["WriteBuffer", "ReadBuffer", "StreamReadBuffer"]

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")


class WriteBuffer:
    """Append-only binary buffer.

    All multi-byte fields are big-endian (matching the XDR layer).
    Strings are length-prefixed UTF-8.
    """

    __slots__ = ("_buf", "bytes_drained")

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Bytes already removed from the front via :meth:`drain`/:meth:`flush`.
        self.bytes_drained = 0

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

    def write_u64(self, value: int) -> None:
        self._buf += _U64.pack(value)

    def write_i64(self, value: int) -> None:
        self._buf += _I64.pack(value)

    def write_str(self, text: str) -> None:
        """Append a UTF-8 string with a u16 length prefix."""
        raw = text.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError("string too long for wire format")
        self.write_u16(len(raw))
        self._buf += raw

    def write_ndarray(self, values: np.ndarray, dtype: np.dtype) -> None:
        """Append *values* converted to *dtype*, casting straight into the
        buffer's own storage (no intermediate ``tobytes`` copy).

        Conversion semantics match ``xdr.encode_array``: a NumPy
        converting assignment casts C-style (narrowing wraps modulo
        2^bits, widening sign-extends), which is exactly what
        ``astype(..., casting="unsafe")`` does.
        """
        src = np.asarray(values)
        n = src.shape[0]
        buf = self._buf
        start = len(buf)
        buf += bytes(n * dtype.itemsize)
        # transient view: created, assigned, dropped — it must not outlive
        # this call or the next append would hit BufferError on resize
        out = np.frombuffer(buf, dtype=dtype, count=n, offset=start)
        out[:] = src
        del out

    # -- streaming ---------------------------------------------------------

    def drain(self, chunk_size: int) -> list[memoryview]:
        """Remove and return all *complete* ``chunk_size``-byte chunks from
        the front of the buffer, leaving any partial tail for later writes.

        This is the producer side of the streaming pipeline: collection
        keeps appending while the caller periodically drains full chunks
        onto the wire.  :attr:`nbytes` keeps counting total bytes written,
        drained or not.

        The returned chunks are zero-copy ``memoryview``s: the buffer
        *detaches* its storage (future writes go to a fresh bytearray)
        so the views stay valid indefinitely and never block a resize.
        Only the short partial tail, if any, is copied forward.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        n_full = len(self._buf) // chunk_size
        if n_full == 0:
            return []
        cut = n_full * chunk_size
        detached = self._buf
        # copy the (short) tail into the new storage, then truncate the
        # detached bytearray so the views below cover exactly the chunks
        self._buf = bytearray(memoryview(detached)[cut:])
        del detached[cut:]
        mv = memoryview(detached)
        chunks = [mv[i * chunk_size : (i + 1) * chunk_size] for i in range(n_full)]
        self.bytes_drained += cut
        return chunks

    def flush(self) -> memoryview:
        """Remove and return whatever remains in the buffer (the final,
        possibly short, chunk of a drained stream).  May be empty.

        Zero-copy: the internal bytearray is detached and returned as a
        ``memoryview`` (no intermediate ``bytes`` join), and the buffer
        continues on fresh storage — so the view stays valid even if the
        buffer is written to again.
        """
        detached = self._buf
        self._buf = bytearray()
        self.bytes_drained += len(detached)
        return memoryview(detached)

    # -- accessors ---------------------------------------------------------

    @property
    def storage(self) -> bytearray:
        """The live storage, for a writer that appends many small records
        in one go (``storage += data`` is :meth:`write` without the
        call).  Fetch it again after any :meth:`drain`/:meth:`flush`:
        both detach it."""
        return self._buf

    @property
    def nbytes(self) -> int:
        """Total bytes written so far (including drained bytes)."""
        return self.bytes_drained + len(self._buf)

    def getvalue(self) -> bytes:
        """Immutable snapshot of the (undrained) buffer contents."""
        if self.bytes_drained:
            raise ValueError(
                "getvalue() after drain() would return a partial payload; "
                "a streamed buffer's bytes already left via drain()/flush()"
            )
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class ReadBuffer:
    """Sequential reader over bytes produced by :class:`WriteBuffer`.

    The bytes in hand are ``window`` (a ``memoryview``) and the read
    offset in it is ``cursor``.  Every reader below consumes from the
    window and goes through :meth:`refill` only when the window runs out:
    for a contiguous payload that is its end (``EOFError``); a
    :class:`StreamReadBuffer` pulls more chunks there.

    A hot loop may read the same way with its own copy of the two (the
    restorer's record walk does): ``Struct.unpack_from(window, cursor)``
    per record, :meth:`refill` at the window's end, and the cursor
    handed back (``buf.cursor = cursor``) before it calls anything else
    that reads the buffer — taking ``window`` and ``cursor`` up again
    after.
    """

    __slots__ = ("window", "cursor")

    def __init__(self, data: bytes | bytearray | memoryview) -> None:
        self.window = memoryview(data)
        self.cursor = 0

    def refill(self, cursor: int, n: int) -> tuple[memoryview, int]:
        """Hand the read offset back at *cursor* of the window and make
        *n* bytes readable from there; return ``(window, cursor)`` —
        where they now are.  A contiguous payload has nothing to add:
        asking for more than it holds is an underrun."""
        self.cursor = cursor
        have = len(self.window) - cursor
        if n > have:
            raise EOFError(
                f"wire buffer underrun: need {n} bytes at {cursor}, have {have}"
            )
        return self.window, cursor

    def _take(self, n: int) -> int:
        """Consume *n* bytes; their offset in the (possibly refilled)
        window.  Read ``self.window`` only after this returns."""
        pos = self.cursor
        if pos + n > len(self.window):
            _, pos = self.refill(pos, n)
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

    def read_u64(self) -> int:
        return self.unpack(_U64)[0]

    def read_i64(self) -> int:
        return self.unpack(_I64)[0]

    def read_str(self) -> str:
        n = self.read_u16()
        return bytes(self.read(n)).decode("utf-8")

    def peek_u8(self) -> int:
        """Return the next u8 without consuming it."""
        pos = self.cursor
        if pos >= len(self.window):
            _, pos = self.refill(pos, 1)
        return self.window[pos]

    def buffered(self) -> memoryview:
        """Zero-copy view of the bytes available *without consuming them*
        (and, for a streamed buffer, without pulling more chunks — an
        opportunistic window, not the full remainder).  Bulk decoders
        parse speculatively from this view and commit via :meth:`read`."""
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


class StreamReadBuffer(ReadBuffer):
    """A :class:`ReadBuffer` over an *iterator of chunks* instead of one
    contiguous payload.

    The restorer pulls records sequentially, so it only ever needs a small
    window of bytes at a time; when a read outruns the window, the next
    chunk is pulled from the iterator and spliced on.  This is what lets
    restoration start before collection has finished: the iterator is
    typically a channel's ``iter_chunks()``, fed on the same thread by a
    draining collector.

    The window is rebuilt as an immutable ``bytes`` on each refill, so
    memoryviews handed out by earlier ``read`` calls stay valid (they pin
    the old window object) and never block the splice.

    An underrun past the final chunk raises :class:`EOFError`, exactly
    like a truncated contiguous payload.
    """

    __slots__ = ("_chunks", "_exhausted", "_base", "_ahead", "_ahead_bytes")

    def __init__(self, chunks: Iterable[bytes]) -> None:
        super().__init__(b"")
        self._chunks: Iterator[bytes] = iter(chunks)
        self._exhausted = False
        #: bytes discarded in front of the current window (for position)
        self._base = 0
        #: chunks :meth:`holds` pulled to count them, not yet in the window
        self._ahead: deque = deque()
        self._ahead_bytes = 0

    def _pull(self):
        """One more chunk off the iterator, or ``None`` once it has ended."""
        if not self._exhausted:
            try:
                return next(self._chunks)
            except StopIteration:
                self._exhausted = True
        return None

    def _next_chunk(self):
        """The next chunk of the stream, or ``None`` past the last one."""
        if self._ahead:
            chunk = self._ahead.popleft()
            self._ahead_bytes -= len(chunk)
            return chunk
        return self._pull()

    def refill(self, cursor: int, n: int) -> tuple[memoryview, int]:
        """Pull chunks until *n* bytes are readable from *cursor* or the
        stream ends.

        All chunks needed to satisfy the request are gathered first and
        joined in ONE pass — splicing the window per chunk would copy
        the growing window once per pull, turning a multi-MB bulk read
        (FlatPlan's single-record restore) quadratic in the chunk count.
        """
        self.cursor = cursor
        window = self.window
        have = len(window) - cursor
        if have >= n:
            return window, cursor
        parts = [window[cursor:]]
        while have < n:
            chunk = self._next_chunk()
            if chunk is None:
                raise EOFError(
                    f"stream underrun: need {n} bytes at {self.position}, "
                    f"have {have} and no more chunks"
                )
            parts.append(chunk)
            have += len(chunk)
        self._base += cursor
        # one join, immutable: views handed out earlier pin the old
        # window object and stay valid across the splice
        self.window = memoryview(b"".join(parts))
        self.cursor = 0
        return self.window, 0

    def readinto(self, dest) -> None:
        """Fill *dest* straight from the stream — chunks are copied into
        the destination as they are pulled, never joined into an
        intermediate window (the bulk half of the zero-copy wire path:
        channel chunk → destination segment, one copy total)."""
        dest = memoryview(dest)
        n = len(dest)
        pos = self.cursor
        start = self._base + pos
        window = self.window
        avail = len(window) - pos
        if avail >= n:
            dest[:] = window[pos : pos + n]
            self.cursor = pos + n
            return
        if avail:
            dest[:avail] = window[pos:]
        filled = avail
        leftover = None
        while filled < n:
            chunk = self._next_chunk()
            if chunk is None:
                raise EOFError(
                    f"stream underrun: need {n} bytes at {start}, "
                    f"have {filled} and no more chunks"
                )
            mv = memoryview(chunk)
            take = min(len(mv), n - filled)
            dest[filled : filled + take] = mv[:take]
            filled += take
            if take < len(mv):
                # unconsumed tail of this chunk becomes the new window
                # (the memoryview pins the chunk object)
                leftover = mv[take:]
        self._base = start + n
        self.cursor = 0
        self.window = leftover if leftover is not None else memoryview(b"")

    # -- state -------------------------------------------------------------

    @property
    def position(self) -> int:
        """Absolute offset into the concatenated stream."""
        return self._base + self.cursor

    @property
    def remaining(self) -> int:
        """Bytes available *without* pulling another chunk (a lower bound
        on the true remainder while the stream is still live)."""
        return len(self.window) - self.cursor + self._ahead_bytes

    def at_end(self) -> bool:
        """Whether the whole stream has been consumed (pulls the iterator
        to find out, so only call once the payload should be complete)."""
        if len(self.window) - self.cursor > 0:
            return False
        try:
            self.refill(self.cursor, 1)
        except EOFError:
            return True
        return False

    def holds(self, n: int) -> bool:
        """Pulls chunks until *n* bytes are in hand or the stream ends.
        The chunks are set aside as they came — not joined into the
        window — so a bulk ``readinto`` that follows still copies each
        exactly once."""
        have = len(self.window) - self.cursor + self._ahead_bytes
        while have < n:
            chunk = self._pull()
            if chunk is None:
                return False
            self._ahead.append(chunk)
            self._ahead_bytes += len(chunk)
            have += len(chunk)
        return True
