"""Network transport with a latency + bandwidth cost model.

The paper's heterogeneity experiments ran over a 10 Mbit/s Ethernet and
the Table 1 / Figure 2 timings over a 100 Mbit/s Ethernet between two
Ultra 5 workstations.  We substitute an in-memory byte channel whose
*modeled* transfer time is

    tx = latency + payload_bits / bandwidth

which is all a reliable bulk transfer contributes to migration time (the
paper's Tx column).  Collection and restoration remain measured wall
clock — only the wire is modeled (see DESIGN.md §2).

Streaming
---------

All three channels additionally speak *chunk frames* (see
:mod:`repro.msr.wire`): ``send_chunk`` frames and enqueues one payload
chunk, ``end_stream`` sends the terminator, and ``recv_chunk`` /
``iter_chunks`` validate and unwrap on the far side.  A chunked stream
sent back-to-back keeps the wire busy, so its modeled transfer time
amortizes the link latency across the train
(:meth:`Link.pipelined_transfer_time`) instead of paying it per chunk —
and, more importantly, lets the engine overlap transfer with collection
and restoration (the pipeline model lives in
:mod:`repro.migration.stats`).

Failure
-------

Transport failure is a first-class, *typed* event (DESIGN.md §7):

- every channel has ``reset()`` (fresh-connection semantics for a retry)
  and ``set_deadline()`` (a recv deadline, so a silently stalled peer
  raises :class:`ChannelTimeoutError` instead of hanging — enforced with
  a real socket timeout on :class:`SocketChannel`);
- :class:`FaultyChannel` wraps any channel and deterministically injects
  drops, truncations, bit-flips, stalls, and disconnects at chosen send
  indices per a :class:`FaultPlan`, so every failure scenario is
  reproducible (CLI: ``repro migrate --fault``).
"""

from __future__ import annotations

import random
import struct
from collections import deque
from dataclasses import dataclass

from repro import obs
from repro.msr.wire import (
    CHUNK_HEADER_SIZE,
    CONTEXT_MAGIC_BYTES,
    ChunkDecoder,
    DeltaDecoder,
    decode_context_frame,
    encode_chunk_parts,
    encode_context_frame,
    encode_delta_end,
    encode_delta_parts,
    encode_end_of_stream,
    TruncatedFrameError,
)

__all__ = [
    "Link",
    "Channel",
    "FileChannel",
    "SocketChannel",
    "ChannelError",
    "ChannelTimeoutError",
    "ChannelClosedError",
    "Fault",
    "FaultPlan",
    "FaultyChannel",
    "ETHERNET_10M",
    "ETHERNET_100M",
    "GIGABIT",
    "LOOPBACK",
]

_RECORD_LEN = struct.Struct(">I")


class ChannelError(Exception):
    """A channel could not deliver or receive a payload."""


class ChannelTimeoutError(ChannelError):
    """The recv deadline expired: the peer stalled or the data was lost."""


class ChannelClosedError(ChannelError):
    """The connection dropped; this channel object is dead (retry on a
    fresh channel — ``reset()`` gives one)."""


@dataclass(frozen=True)
class Link:
    """A network link between two hosts."""

    name: str
    bandwidth_bps: float  # bits per second
    latency_s: float = 0.001

    def transfer_time(self, nbytes: int) -> float:
        """Modeled one-way transfer time for *nbytes* of payload."""
        return self.latency_s + (nbytes * 8.0) / self.bandwidth_bps

    def pipelined_transfer_time(self, nbytes: int, n_chunks: int) -> float:
        """Modeled transfer time for *nbytes* streamed as *n_chunks*
        back-to-back frames.

        The sender keeps the pipe full, so the propagation latency is
        paid once — by the first frame filling the pipe — and every
        later frame rides directly behind it:

            latency + nbytes·8 / bandwidth

        and **not** the naive per-chunk sum
        ``n_chunks · (latency + chunk_bits/bandwidth)``, which would
        charge the fill cost *n_chunks* times.  (*n_chunks* is accepted
        for the signature's honesty — a zero-chunk stream still pays
        nothing but latency — and for subclass models that do charge a
        small per-frame cost.)
        """
        if n_chunks <= 1:
            return self.transfer_time(nbytes)
        return self.latency_s + (nbytes * 8.0) / self.bandwidth_bps


#: the paper's heterogeneous testbed interconnect (§4.1)
ETHERNET_10M = Link("ethernet-10M", 10e6, latency_s=0.002)
#: the paper's homogeneous testbed interconnect (§4.2, Table 1)
ETHERNET_100M = Link("ethernet-100M", 100e6, latency_s=0.001)
GIGABIT = Link("gigabit", 1e9, latency_s=0.0005)
LOOPBACK = Link("loopback", 1e12, latency_s=0.0)


class _ChunkStreamMixin:
    """Framed-chunk streaming on top of a channel's ``send``/``recv``.

    The default implementation rides the channel's whole-message
    primitives: a frame is just one more message on the wire.  Channels
    with a genuinely different streaming data path (the socket) override
    ``send_chunk``/``recv_chunk`` but keep the same accounting.

    ``concurrent_stream`` tells the engine whether this channel needs a
    producer thread (the stream blocks until someone consumes it) or can
    be driven by a same-thread generator.
    """

    concurrent_stream = False

    def _init_stream_state(self) -> None:
        self._send_seq = 0
        self._decoder = ChunkDecoder()
        self.chunks_sent = 0
        self.framed_bytes_sent = 0
        #: stored (possibly compressed) chunk payload bytes, headers excluded
        self.stored_chunk_bytes = 0
        #: opt-in per-chunk zlib compression (``migrate(..., compress=True)``)
        self.compress_stream = False
        #: seconds spent compressing + decompressing chunk payloads
        self.codec_seconds = 0.0
        self.deadline: float | None = None
        #: latest trace-context body seen by the receive side (stashed
        #: by ``recv_chunk`` when a control frame rides ahead of data)
        self.received_context: bytes | None = None
        # one frame read ahead of the chunk stream by recv_context()
        self._pending_frame: bytes | None = None
        # pre-copy delta rounds: per-round sequence space (MDLT frames)
        self._delta_seq = 0
        self._delta_decoder = DeltaDecoder()
        self.delta_frames_sent = 0
        self.delta_bytes_sent = 0

    def _reset_stream_protocol(self) -> None:
        """Abandon any half-spoken stream (sequence numbers, decoder);
        cumulative byte/chunk counters are preserved for accounting.

        The dying decoder's unfolded inflate seconds are folded into the
        channel ledger here — exactly once, because ``recv_chunk``'s
        end-of-stream path replaced the decoder with a fresh one after
        its own fold, so a reset after a *completed* stream folds a
        zero.  :attr:`total_codec_seconds` is invariant across both
        folds, which is what the accounting tests pin.
        """
        self._send_seq = 0
        self.codec_seconds += self._decoder.codec_seconds
        self._decoder = ChunkDecoder()
        self.received_context = None
        self._pending_frame = None
        self._delta_seq = 0
        self._delta_decoder = DeltaDecoder()

    @property
    def total_codec_seconds(self) -> float:
        """Codec seconds including the live decoder's not-yet-folded
        share — the fold-order-independent read the engine and the
        accounting tests use (an aborted stream's inflate time is in
        the decoder until ``reset()`` folds it)."""
        return self.codec_seconds + self._decoder.codec_seconds

    @property
    def accepted_bytes(self) -> int:
        """Every byte handed to the send side — whole messages and frames
        of every kind — counted once.  By default a frame is one more
        ``send()``, so ``bytes_sent`` already holds them all
        (``framed_bytes_sent`` is the frames' share, not an addend)."""
        return self.bytes_sent

    def set_deadline(self, seconds: float | None) -> None:
        """Install a recv deadline.  The modeled channels cannot block, so
        for them the deadline is bookkeeping the fault layer consults;
        :class:`SocketChannel` enforces it with a real socket timeout."""
        self.deadline = seconds

    def abort_stream(self) -> None:
        """Tear down the send side of an in-flight stream so a blocked
        consumer fails with a typed error instead of hanging (no-op on
        channels whose reads never block)."""

    def send_chunk(self, payload: bytes | bytearray | memoryview) -> float:
        """Frame and transmit one chunk; returns the modeled per-frame
        wire time (the engine amortizes latency across the whole train
        via :meth:`Link.pipelined_transfer_time`).

        *payload* may be any buffer-protocol object — the streaming
        engine hands over ``WriteBuffer.drain``'s ``memoryview``s and
        the frame CRC/compression run over the view; the header/body
        pair only gets joined where the underlying transport needs one
        contiguous buffer (see :meth:`_send_frame_parts`)."""
        if self.compress_stream:
            with obs.lap("codec.deflate") as timed:
                header, body = encode_chunk_parts(
                    self._send_seq, payload, compress=True
                )
            self.codec_seconds += timed.seconds
        else:
            header, body = encode_chunk_parts(self._send_seq, payload)
        frame_len = len(header) + len(body)
        self._send_seq += 1
        self.chunks_sent += 1
        self.framed_bytes_sent += frame_len
        self.stored_chunk_bytes += frame_len - CHUNK_HEADER_SIZE
        obs.inc("wire.chunks_sent")
        obs.inc("wire.framed_bytes_sent", frame_len)
        return self._send_frame_parts(header, body)

    def end_stream(self) -> float:
        """Transmit the end-of-stream terminator and reset the sender
        sequence so the channel can carry another stream."""
        frame = encode_end_of_stream(self._send_seq)
        self._send_seq = 0
        self.framed_bytes_sent += len(frame)
        return self._send_frame(frame)

    # -- trace-context control frames --------------------------------------

    def send_context(self, body: bytes) -> float:
        """Ship a trace-context body as a control frame.

        Control frames ride the same wire but are *not* data sends:
        they consume no chunk sequence number and — crucially — no
        fault-plan send index, so adding tracing to a migration never
        shifts which data send a deterministic fault fires on.
        """
        frame = encode_context_frame(body)
        self.framed_bytes_sent += len(frame)
        obs.inc("wire.context_frames_sent")
        obs.inc("wire.framed_bytes_sent", len(frame))
        return self._send_control(frame)

    def recv_context(self) -> bytes | None:
        """The trace-context body for the incoming stream, if any.

        Returns a body already stashed by :meth:`recv_chunk`, else reads
        one frame: a context frame is consumed and returned, anything
        else is held for the chunk reader and ``None`` is returned (a
        sender that never speaks tracing costs one read-ahead, no loss).
        """
        if self.received_context is not None:
            body, self.received_context = self.received_context, None
            return body
        frame = self._next_frame()
        if bytes(memoryview(frame)[:4]) == CONTEXT_MAGIC_BYTES:
            return decode_context_frame(frame)
        self._pending_frame = frame
        return None

    def _next_frame(self) -> bytes:
        """The held read-ahead frame if any, else one off the wire."""
        frame, self._pending_frame = self._pending_frame, None
        if frame is None:
            frame = self._recv_frame()
        return frame

    # -- pre-copy delta rounds (MDLT frames) -------------------------------

    def send_delta(self, payload: bytes | bytearray | memoryview) -> float:
        """Frame and transmit one delta-round chunk (raw, CRC over the
        raw bytes, per-round sequence space — see :mod:`repro.msr.wire`)."""
        header, body = encode_delta_parts(self._delta_seq, payload)
        frame_len = len(header) + len(body)
        self._delta_seq += 1
        self.delta_frames_sent += 1
        self.delta_bytes_sent += frame_len
        self.framed_bytes_sent += frame_len
        obs.inc("wire.delta_frames_sent")
        obs.inc("wire.framed_bytes_sent", frame_len)
        return self._send_delta_frame(b"".join((header, body)))

    def end_delta_round(self) -> float:
        """Transmit the round terminator and rewind the per-round
        sequence so the next round starts at 0 again."""
        frame = encode_delta_end(self._delta_seq)
        self._delta_seq = 0
        self.delta_bytes_sent += len(frame)
        self.framed_bytes_sent += len(frame)
        return self._send_delta_frame(frame)

    def recv_delta(self) -> bytes | None:
        """Receive, validate, and unwrap the next delta chunk payload;
        ``None`` at end-of-round (receiver state resets for the next
        round)."""
        payload = self._delta_decoder.decode(self._next_frame())
        if payload is None:
            self._delta_decoder = DeltaDecoder()
        return payload

    def iter_delta_round(self):
        """Yield the delta chunk payloads of one round until its end."""
        while True:
            payload = self.recv_delta()
            if payload is None:
                return
            yield payload

    def _send_delta_frame(self, frame: bytes) -> float:
        """Transmit a delta frame.  Defaults to the data path; the fault
        layer overrides this to route delta frames *around* its send
        counter, like trace-context control frames (see
        :meth:`FaultyChannel._send_delta_frame`)."""
        return self._send_frame(frame)

    def recv_chunk(self) -> bytes | None:
        """Receive, validate, and unwrap the next chunk payload.

        Returns ``None`` at end-of-stream (and resets the receiver state
        for the next stream).  Trace-context control frames encountered
        mid-stream are stashed on :attr:`received_context` rather than
        surfaced.  Raises the typed
        :class:`~repro.msr.wire.WireFrameError` family on damage.
        """
        frame = self._next_frame()
        while bytes(memoryview(frame)[:4]) == CONTEXT_MAGIC_BYTES:
            self.received_context = decode_context_frame(frame)
            frame = self._recv_frame()
        payload = self._decoder.decode(frame)
        if payload is None:
            # end-of-stream: fold the finished decoder's inflate seconds
            # and replace it, so a later reset() folds a fresh zero
            # instead of double-counting this stream
            self.codec_seconds += self._decoder.codec_seconds
            self._decoder = ChunkDecoder()
        else:
            obs.inc("wire.chunks_received")
        return payload

    def iter_chunks(self):
        """Yield chunk payloads until end-of-stream."""
        while True:
            payload = self.recv_chunk()
            if payload is None:
                return
            yield payload

    # frame transport, overridable ----------------------------------------

    def _send_frame(self, frame: bytes) -> float:
        return self.send(frame)

    def _send_frame_parts(self, header: bytes, body) -> float:
        """Transmit one frame given as ``(header, body)`` parts.

        The default joins once and rides the whole-frame path — this is
        also what keeps the fault layer meaningful (faults slice and
        bit-flip the complete frame, wherever its bytes came from).
        Channels with a vectored wire (the socket) override this to ship
        the parts back to back without the join.
        """
        return self._send_frame(b"".join((header, body)))

    def _send_control(self, frame: bytes) -> float:
        """Transmit a control frame.  Defaults to the data path; the
        fault layer overrides this to route control frames *around* its
        send counter (they are protocol plumbing, not payload)."""
        return self._send_frame(frame)

    def _recv_frame(self) -> bytes:
        return self.recv()


class Channel(_ChunkStreamMixin):
    """A reliable, ordered byte channel over one :class:`Link`.

    ``send`` enqueues the payload and returns the modeled transfer time;
    ``recv`` dequeues in FIFO order.  ``bytes_sent`` accumulates for
    reporting.
    """

    def __init__(self, link: Link) -> None:
        self.link = link
        self._queue: deque[bytes] = deque()
        self.bytes_sent = 0
        self.messages_sent = 0
        self._init_stream_state()

    def send(self, payload: bytes | bytearray | memoryview) -> float:
        """Transmit *payload* (any buffer-protocol object); returns the
        modeled wire time in seconds."""
        self._queue.append(payload)
        self.bytes_sent += len(payload)
        self.messages_sent += 1
        obs.inc("wire.messages_sent")
        obs.inc("wire.bytes_sent", len(payload))
        return self.link.transfer_time(len(payload))

    def recv(self) -> bytes:
        """Receive the next payload (raises if none pending)."""
        if not self._queue:
            raise RuntimeError("channel empty: nothing was sent")
        return self._queue.popleft()

    def reset(self) -> None:
        """Fresh-connection semantics for a retry: discard any undelivered
        payloads and stream state from the failed attempt."""
        self._queue.clear()
        self._reset_stream_protocol()

    @property
    def pending(self) -> int:
        return len(self._queue)


class FileChannel(_ChunkStreamMixin):
    """Transfer via a shared file system (the paper's second layer-1
    option: "using either TCP protocol, shared file systems, or remote
    file transfer").  Each ``send`` writes one length-prefixed record to
    the spool file; ``recv`` consumes records in order through a
    persistent read handle (re-reading the whole spool per record would
    be O(n²) bytes over a multi-message session)."""

    def __init__(self, path, link: Link = ETHERNET_10M) -> None:
        import pathlib

        self.path = pathlib.Path(path)
        self.link = link
        self._read_offset = 0
        self.bytes_sent = 0
        self.messages_sent = 0
        self.path.write_bytes(b"")
        self._init_stream_state()

    def _reader(self):
        """The persistent read handle (created lazily so externally
        attached channel objects keep working)."""
        fh = getattr(self, "_rfh", None)
        if fh is None or fh.closed:
            fh = self.path.open("rb")
            self._rfh = fh
        return fh

    def send(self, payload: bytes | bytearray | memoryview) -> float:
        # fh.write accepts any buffer-protocol object — no bytes() copy
        with self.path.open("ab") as fh:
            fh.write(_RECORD_LEN.pack(len(payload)))
            fh.write(payload)
        self.bytes_sent += len(payload)
        self.messages_sent += 1
        obs.inc("wire.messages_sent")
        obs.inc("wire.bytes_sent", len(payload))
        return self.link.transfer_time(len(payload))

    def recv(self) -> bytes:
        fh = self._reader()
        fh.seek(self._read_offset)
        header = fh.read(_RECORD_LEN.size)
        if len(header) < _RECORD_LEN.size:
            raise RuntimeError("file channel empty: nothing was sent")
        (n,) = _RECORD_LEN.unpack(header)
        payload = fh.read(n)
        if len(payload) < n:
            raise RuntimeError("file channel truncated")
        self._read_offset = fh.tell()
        return payload

    @property
    def pending(self) -> int:
        # seek over record bodies instead of reading them: O(records)
        fh = self._reader()
        size = self.path.stat().st_size
        off, count = self._read_offset, 0
        while off + _RECORD_LEN.size <= size:
            fh.seek(off)
            (n,) = _RECORD_LEN.unpack(fh.read(_RECORD_LEN.size))
            if off + _RECORD_LEN.size + n > size:
                break  # partial record still being written
            off += _RECORD_LEN.size + n
            count += 1
        return count

    def reset(self) -> None:
        """Fresh-spool semantics for a retry: truncate the spool file and
        rewind the reader past the failed attempt's records."""
        self.close()
        self.path.write_bytes(b"")
        self._read_offset = 0
        self._reset_stream_protocol()

    def close(self) -> None:
        fh = getattr(self, "_rfh", None)
        if fh is not None and not fh.closed:
            fh.close()


class SocketChannel(_ChunkStreamMixin):
    """Transfer over a real local socket pair (the paper's TCP option).

    The bytes genuinely cross a kernel socket; the *reported* time still
    comes from the link model so that measurements stay comparable with
    the in-memory channel (a loopback socket says nothing about a
    10 Mb/s Ethernet).

    Both endpoints live in one thread for whole-message transfers, so
    ``send`` only queues the payload; ``recv`` pumps it through the
    socket in chunks small enough never to fill the kernel buffer (an
    8 MB matrix must not deadlock a single-threaded test).

    Streamed chunks are different: ``send_chunk`` writes the frame
    straight into the socket and may block once the kernel buffer fills,
    so the engine drives this channel with a producer thread
    (``concurrent_stream = True``) while the consumer drains
    ``recv_chunk`` — a real producer/consumer pipeline.
    """

    _CHUNK = 32768

    concurrent_stream = True

    def __init__(self, link: Link = ETHERNET_10M, deadline: float | None = None) -> None:
        import socket

        self.link = link
        self._tx, self._rx = socket.socketpair()
        self._outgoing: deque[bytes] = deque()
        self.bytes_sent = 0
        self.messages_sent = 0
        self._init_stream_state()
        if deadline is not None:
            self.set_deadline(deadline)

    def set_deadline(self, seconds: float | None) -> None:
        """Recv deadline, enforced by the kernel: a peer that connects and
        then stalls raises :class:`ChannelTimeoutError` within *seconds*
        instead of hanging the consumer forever."""
        self.deadline = seconds
        self._rx.settimeout(seconds)

    def send(self, payload: bytes | bytearray | memoryview) -> float:
        # queued as-is (buffer-protocol accepted): senders hand over
        # either immutable bytes or detached WriteBuffer storage, so the
        # defensive copy the queue used to take bought nothing
        self._outgoing.append(payload)
        self.bytes_sent += len(payload)
        self.messages_sent += 1
        obs.inc("wire.messages_sent")
        obs.inc("wire.bytes_sent", len(payload))
        return self.link.transfer_time(len(payload))

    def recv(self) -> bytes:
        if not self._outgoing:
            raise RuntimeError("socket channel empty: nothing was sent")
        payload = self._outgoing.popleft()
        out = bytearray()
        view = memoryview(payload)
        for start in range(0, len(view), self._CHUNK):
            chunk = view[start : start + self._CHUNK]
            self._tx.sendall(chunk)
            got = 0
            while got < len(chunk):
                piece = self._rx.recv(len(chunk) - got)
                if not piece:
                    raise RuntimeError("socket channel closed mid-message")
                out += piece
                got += len(piece)
        return bytes(out)

    # -- streamed frames go through the socket for real -------------------

    @property
    def accepted_bytes(self) -> int:
        # frames go straight into the socket, past send()
        return self.bytes_sent + self.framed_bytes_sent

    def _send_frame(self, frame: bytes) -> float:
        self._tx.sendall(frame)
        return self.link.transfer_time(len(frame))

    def _send_frame_parts(self, header: bytes, body) -> float:
        # vectored send: header and body go out back to back, no join —
        # sendall accepts any buffer-protocol object
        self._tx.sendall(header)
        self._tx.sendall(body)
        return self.link.transfer_time(len(header) + len(body))

    def _read_exact(self, n: int, context: str) -> bytes:
        out = bytearray()
        while len(out) < n:
            try:
                piece = self._rx.recv(n - len(out))
            except TimeoutError:
                raise ChannelTimeoutError(
                    f"recv deadline ({self.deadline}s) expired mid-{context}: "
                    f"peer stalled after {len(out)} of {n} bytes"
                ) from None
            if not piece:
                raise TruncatedFrameError(
                    f"socket closed mid-{context}: got {len(out)} of {n} bytes"
                )
            out += piece
        return bytes(out)

    def _recv_frame(self) -> bytes:
        from repro.msr.wire import (
            CHUNK_MAGIC,
            CHUNK_MAGIC_Z,
            CONTEXT_MAGIC,
            DELTA_MAGIC,
            FrameCorruptError,
        )

        header = self._read_exact(CHUNK_HEADER_SIZE, "frame header")
        (magic,) = _RECORD_LEN.unpack_from(header, 0)
        if magic not in (CHUNK_MAGIC, CHUNK_MAGIC_Z, CONTEXT_MAGIC, DELTA_MAGIC):
            # a desynced stream must fail here, before a garbage length
            # field makes us block waiting for bytes that never come
            raise FrameCorruptError(f"bad chunk frame magic {magic:#010x}")
        (length,) = _RECORD_LEN.unpack_from(header, 8)
        if length == 0:
            return header
        return header + self._read_exact(length, "frame payload")

    @property
    def pending(self) -> int:
        return len(self._outgoing)

    def reset(self) -> None:
        """Fresh-connection semantics for a retry: tear down the failed
        socket pair (which may hold half a frame) and dial a new one."""
        import socket

        self.close()
        self._tx, self._rx = socket.socketpair()
        self._outgoing.clear()
        self._reset_stream_protocol()
        if self.deadline is not None:
            self._rx.settimeout(self.deadline)

    def abort_stream(self) -> None:
        try:
            self._tx.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        self._tx.close()
        self._rx.close()


# -- deterministic fault injection --------------------------------------------


@dataclass
class Fault:
    """One injected transport fault.

    *index* is the 0-based send operation (message or chunk frame) it
    fires on, counted per attempt (``reset()`` rewinds the counter).  A
    transient fault fires once and is spent — the way real links fail —
    so a retried attempt sails past it; ``persistent=True`` models a
    deterministic black hole that hits every attempt.
    """

    kind: str  # 'drop' | 'truncate' | 'bitflip' | 'stall' | 'disconnect'
    index: int
    #: bitflip: bit position in the payload; truncate: bytes cut off the end
    arg: int = 1
    persistent: bool = False

    KINDS = ("drop", "truncate", "bitflip", "stall", "disconnect")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {self.KINDS}")
        if self.index < 0:
            raise ValueError(f"fault index must be >= 0, got {self.index}")

    def __str__(self) -> str:
        tail = "!" if self.persistent else ""
        return f"{self.kind}@{self.index}:{self.arg}{tail}"


class FaultPlan:
    """A deterministic schedule of transport faults.

    Build one explicitly, parse it from a spec string
    (``"bitflip@1:3,drop@2"``, persistent faults suffixed ``!``), or
    derive it from a seed (``FaultPlan.seeded(42)`` /
    ``FaultPlan.parse("seed=42:count=2:max=8")``) — the same seed always
    yields the same schedule, which is what makes a flaky-link scenario
    reproducible from the CLI.
    """

    def __init__(self, faults=()) -> None:
        self.faults: list[Fault] = list(faults)
        self._spent: set[int] = set()

    def take(self, index: int):
        """The fault scheduled for send *index*, consuming it if
        transient; ``None`` when that send is clean."""
        for i, fault in enumerate(self.faults):
            if fault.index == index and i not in self._spent:
                if not fault.persistent:
                    self._spent.add(i)
                return fault
        return None

    @property
    def pending(self) -> int:
        """Faults not yet fired (persistent faults never deplete)."""
        return len(self.faults) - len(self._spent)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``kind@index[:arg][!],...`` or ``seed=N[:count=K][:max=M]``."""
        spec = spec.strip()
        if spec.startswith("seed="):
            params = {}
            for part in spec.split(":"):
                key, _, value = part.partition("=")
                params[key.strip()] = int(value)
            return cls.seeded(
                params["seed"],
                n_faults=params.get("count", 1),
                max_index=params.get("max", 8),
            )
        faults = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            persistent = token.endswith("!")
            if persistent:
                token = token[:-1]
            kind, _, rest = token.partition("@")
            if not rest:
                raise ValueError(f"fault spec {token!r} needs '@index'")
            index_s, _, arg_s = rest.partition(":")
            kind = {"flip": "bitflip", "trunc": "truncate"}.get(kind, kind)
            faults.append(
                Fault(kind, int(index_s), int(arg_s) if arg_s else 1, persistent)
            )
        return cls(faults)

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_faults: int = 1,
        max_index: int = 8,
        kinds=Fault.KINDS,
        persistent: bool = False,
    ) -> "FaultPlan":
        """A reproducible random schedule: same seed, same faults."""
        rng = random.Random(seed)
        return cls(
            Fault(rng.choice(list(kinds)), rng.randrange(max_index),
                  rng.randrange(1, 64), persistent)
            for _ in range(n_faults)
        )

    def __str__(self) -> str:
        return ",".join(str(f) for f in self.faults) or "<no faults>"


def _flip_bit(payload: bytes, bit: int) -> bytes:
    out = bytearray(payload)
    bit %= len(out) * 8
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class FaultyChannel(_ChunkStreamMixin):
    """Deterministic fault injection on top of any channel.

    Wraps an inner channel and applies the :class:`FaultPlan` on the
    send path (both whole messages and chunk frames share one send
    counter).  Fault semantics:

    - ``drop``: the payload silently vanishes — the receiver sees a
      sequence gap (:class:`~repro.msr.wire.FrameOrderError`) or, when
      nothing else is coming, a recv deadline expiry;
    - ``truncate``: the last *arg* bytes are cut off →
      :class:`~repro.msr.wire.TruncatedFrameError` / checksum mismatch;
    - ``bitflip``: one payload bit flips → CRC/magic failure on frames,
      the engine's whole-payload checksum on monolithic transfers;
    - ``stall``: the payload wedges in the pipe; the next receive raises
      :class:`ChannelTimeoutError` (the recv deadline firing);
    - ``disconnect``: the connection dies — this and every later
      operation raises :class:`ChannelClosedError` until ``reset()``.
    """

    def __init__(self, inner, plan: FaultPlan, deadline: float | None = None) -> None:
        self.inner = inner
        self.plan = plan
        self.bytes_sent = 0
        self.messages_sent = 0
        self.faults_fired: list[Fault] = []
        self._send_index = 0
        self._stalled = False
        self._closed = False
        self._init_stream_state()
        if deadline is not None:
            self.set_deadline(deadline)

    @property
    def link(self) -> Link:
        return self.inner.link

    @property
    def concurrent_stream(self) -> bool:
        return getattr(self.inner, "concurrent_stream", False)

    @property
    def pending(self) -> int:
        return self.inner.pending

    def set_deadline(self, seconds: float | None) -> None:
        self.deadline = seconds
        if hasattr(self.inner, "set_deadline"):
            self.inner.set_deadline(seconds)

    # -- fault application -------------------------------------------------

    def _apply_send(self, payload: bytes):
        """Corrupt (or swallow) one outgoing payload per the plan.
        Returns the bytes to forward, or ``None`` to forward nothing."""
        if self._closed:
            raise ChannelClosedError("send on a disconnected channel")
        index = self._send_index
        self._send_index += 1
        self.bytes_sent += len(payload)
        self.messages_sent += 1
        fault = self.plan.take(index)
        if fault is None:
            return payload
        self.faults_fired.append(fault)
        obs.inc("faults.injected")
        obs.inc(f"faults.{fault.kind}")
        obs.event("fault", kind=fault.kind, index=index)
        if fault.kind == "drop":
            return None
        if fault.kind == "truncate":
            return payload[: max(len(payload) - max(fault.arg, 1), 0)]
        if fault.kind == "bitflip":
            return _flip_bit(payload, fault.arg)
        if fault.kind == "stall":
            self._stalled = True
            return None
        # disconnect
        self._closed = True
        raise ChannelClosedError(
            f"connection dropped at send #{index} (injected disconnect)"
        )

    def _pre_recv(self) -> None:
        if self._closed:
            raise ChannelClosedError("recv on a disconnected channel")
        if self._stalled:
            self._stalled = False
            raise ChannelTimeoutError(
                f"recv deadline ({self.deadline}s) expired: peer stalled "
                f"mid-transfer (injected stall)"
            )

    # -- whole messages ----------------------------------------------------

    def send(self, payload: bytes) -> float:
        forwarded = self._apply_send(payload)
        if forwarded is None:
            return self.link.transfer_time(len(payload))
        return self.inner.send(forwarded)

    def recv(self) -> bytes:
        self._pre_recv()
        if self.inner.pending == 0:
            raise ChannelTimeoutError(
                f"recv deadline ({self.deadline}s) expired: nothing arrived "
                f"(payload lost in transit)"
            )
        return self.inner.recv()

    # -- chunk frames ------------------------------------------------------

    def _send_frame(self, frame: bytes) -> float:
        forwarded = self._apply_send(frame)
        if forwarded is None:
            return self.link.transfer_time(len(frame))
        return self.inner._send_frame(forwarded)

    def _send_control(self, frame: bytes) -> float:
        """Control frames bypass the fault plan's send counter entirely:
        they are protocol plumbing, and counting them would shift every
        existing deterministic fault schedule by one.  A disconnected
        channel still refuses them."""
        if self._closed:
            raise ChannelClosedError("send on a disconnected channel")
        self.bytes_sent += len(frame)
        return self.inner._send_control(frame)

    def _send_delta_frame(self, frame: bytes) -> float:
        """Delta frames follow the MCTX precedent: they bypass the fault
        plan's send counter, so a seeded fault spec fires on exactly the
        same data send with pre-copy on or off (the round *count* varies
        with convergence, and letting it shift the counter would make
        ``--fault seed=N`` unreproducible across the two modes).  A
        disconnected channel still refuses them."""
        if self._closed:
            raise ChannelClosedError("send on a disconnected channel")
        self.bytes_sent += len(frame)
        return self.inner._send_delta_frame(frame)

    def _recv_frame(self) -> bytes:
        self._pre_recv()
        # message-queue channels cannot block; an empty queue after a
        # dropped frame is the deadline firing.  The socket blocks for
        # real and enforces its own deadline.
        if not self.concurrent_stream and self.inner.pending == 0:
            raise ChannelTimeoutError(
                f"recv deadline ({self.deadline}s) expired: expected chunk "
                f"frame never arrived"
            )
        return self.inner._recv_frame()

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Fresh-connection semantics for a retry: clears the disconnect /
        stall state and rewinds the per-attempt send counter.  Spent
        transient faults stay spent — the retry meets the link as it is
        *now*, not a replay of the failure."""
        self._send_index = 0
        self._stalled = False
        self._closed = False
        self._reset_stream_protocol()
        if hasattr(self.inner, "reset"):
            self.inner.reset()

    def abort_stream(self) -> None:
        if hasattr(self.inner, "abort_stream"):
            self.inner.abort_stream()

    def close(self) -> None:
        if hasattr(self.inner, "close"):
            self.inner.close()
