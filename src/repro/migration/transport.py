"""Network transport with a latency + bandwidth cost model.

The paper's heterogeneity experiments ran over a 10 Mbit/s Ethernet and
the Table 1 / Figure 2 timings over a 100 Mbit/s Ethernet between two
Ultra 5 workstations.  We substitute an in-memory byte channel whose
*modeled* transfer time is

    tx = latency + payload_bits / bandwidth

which is all a reliable bulk transfer contributes to migration time (the
paper's Tx column).  Collection and restoration remain measured wall
clock — only the wire is modeled (see DESIGN.md §2).

Frames
------

Every channel (:class:`BaseChannel`) speaks *frames* (see
:mod:`repro.msr.wire`) on top of its whole messages, and frames are all
a migration puts on it: ``send_chunk`` frames and enqueues one payload
chunk, ``end_stream`` sends the terminator, and ``recv_chunk`` /
``iter_chunks`` validate and unwrap on the far side — for a transfer
attempt and a pre-copy round alike.  A stream sent back-to-back keeps
the wire busy, so the engine charges the link latency once per train
(``Link.transfer_time`` of the framed bytes) and overlaps transfer with
collection and restoration (the pipeline model lives in
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
  reproducible (CLI: ``repro migrate --fault``).  Every send has an
  index: whole messages, chunk frames and terminators (pre-copy rounds'
  included) share one counter.
"""

from __future__ import annotations

import pathlib
import random
import socket
import struct
import threading
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro import obs
from repro.msr.wire import (
    CHUNK_HEADER_SIZE,
    FRAME_MAGICS,
    ChunkDecoder,
    FrameCorruptError,
    encode_chunk_parts,
    encode_end_of_stream,
    TruncatedFrameError,
)

__all__ = [
    "Link",
    "BaseChannel",
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
        """Modeled one-way transfer time for *nbytes* sent back to back
        (one message, or a train of frames that keeps the pipe full: the
        propagation latency is paid once, by the first byte)."""
        return self.latency_s + (nbytes * 8.0) / self.bandwidth_bps


#: the paper's heterogeneous testbed interconnect (§4.1)
ETHERNET_10M = Link("ethernet-10M", 10e6, latency_s=0.002)
#: the paper's homogeneous testbed interconnect (§4.2, Table 1)
ETHERNET_100M = Link("ethernet-100M", 100e6, latency_s=0.001)
GIGABIT = Link("gigabit", 1e9, latency_s=0.0005)
LOOPBACK = Link("loopback", 1e12, latency_s=0.0)


class BaseChannel:
    """What every channel is: whole messages (``send``/``recv``) over one
    :class:`Link`, chunk streams on top of them, and the lifecycle the
    engine drives (``reset``, ``set_deadline``, ``abort_stream``,
    ``close``).

    A subclass supplies ``_deliver`` (put one message on its wire),
    ``recv`` and ``pending``.  By default a frame is just one more
    message; channels with a genuinely different streaming data path
    (the socket) override ``_send_frame``/``_send_frame_parts``/
    ``_recv_frame`` but keep the same accounting.

    ``concurrent_stream`` says whether a stream's send side must run in
    a producer thread (frame writes block until someone consumes them)
    or can share the consumer's thread — :meth:`feeding` acts on it.
    """

    concurrent_stream = False

    def __init__(self, link: Link, deadline: float | None = None) -> None:
        self.link = link
        self.bytes_sent = 0
        self.messages_sent = 0
        #: bytes of every frame built here, terminators included
        self.framed_bytes_sent = 0
        #: chunk frames sent, terminators excluded
        self.chunks_sent = 0
        #: bytes accepted while a pre-copy phase ran (booked by
        #: :func:`~repro.migration.precopy.run_precopy`)
        self.delta_bytes_sent = 0
        #: opt-in per-chunk zlib compression (``migrate(..., compress=True)``)
        self.compress_stream = False
        self.deadline: float | None = None
        self._seq = 0
        self._decoder = ChunkDecoder()
        if deadline is not None:
            self.set_deadline(deadline)

    # -- whole messages ----------------------------------------------------

    def send(self, payload: bytes | bytearray | memoryview) -> float:
        """Transmit *payload* (any buffer-protocol object); returns the
        modeled wire time in seconds."""
        self._deliver(payload)
        self.bytes_sent += len(payload)
        self.messages_sent += 1
        return self.link.transfer_time(len(payload))

    @property
    def accepted_bytes(self) -> int:
        """Every byte handed to the send side, whole messages and frames
        alike, counted once.  By default a frame is one more
        ``send()``, so ``bytes_sent`` already holds them all
        (``framed_bytes_sent`` is the frames' share, not an addend)."""
        return self.bytes_sent

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Fresh-connection semantics for a retry: abandon any half-spoken
        stream (subclasses also discard undelivered bytes); cumulative
        byte/frame counters are preserved for accounting."""
        self._seq = 0
        self._decoder = ChunkDecoder()

    def set_deadline(self, seconds: float | None) -> None:
        """Install a recv deadline.  The modeled channels cannot block, so
        for them the deadline is bookkeeping the fault layer consults;
        :class:`SocketChannel` enforces it with a real socket timeout."""
        self.deadline = seconds

    def _timed_out(self, what: str) -> ChannelTimeoutError:
        """The recv timeout, saying which it was: a modeled channel
        cannot block, so for it "nothing pending" *is* the timeout,
        whether or not a deadline was set."""
        if self.deadline is None:
            return ChannelTimeoutError(f"recv timed out (no deadline set): {what}")
        return ChannelTimeoutError(f"recv deadline ({self.deadline}s) expired: {what}")

    def abort_stream(self) -> None:
        """Tear down the send side of an in-flight stream so a blocked
        consumer fails with a typed error instead of hanging (no-op on
        channels whose reads never block)."""

    def close(self) -> None:
        """Release what the channel holds open (nothing, by default)."""

    @contextmanager
    def feeding(self, send_all, thread_name: str):
        """Run *send_all* — the whole send side of one stream — for the
        consumer in the ``with`` block: up front on a channel whose
        writes never block, else in a producer thread (*thread_name*)
        that the block's exit joins.

        The thread does not inherit the caller's ContextVars, so the
        active observation is re-activated inside it, rooting its spans
        under the span that spawned it.  Whatever *send_all* raises there
        is re-raised here (ahead of the consumer's own error, which it
        caused: the aborted send side turns the consumer's next read into
        a typed :class:`~repro.msr.wire.TruncatedFrameError`).  A
        consumer that fails first — it refused a damaged frame — closes
        the channel before joining: the producer may be blocked on a full
        pipe that nobody will drain, and what the close makes it raise
        is an echo of the consumer's error, not reported."""
        if not self.concurrent_stream:
            send_all()
            yield
            return
        error: list = []
        obs_ = obs.current()
        scope = nullcontext()
        if obs_ is not None:
            scope = obs_.activate_in_thread(obs_.tracer.current())

        def produce() -> None:
            try:
                with scope:
                    send_all()
            except BaseException as exc:  # noqa: BLE001 - re-raised by the consumer
                error.append(exc)
                self.abort_stream()

        producer = threading.Thread(target=produce, name=thread_name)
        producer.start()
        consumer_first = False
        try:
            yield
        except BaseException:
            consumer_first = not error
            if consumer_first:
                self.close()
            raise
        finally:
            producer.join()
            if error and not consumer_first:
                raise error[0]

    # -- chunk streams ('MCHK'/'MCHZ') -------------------------------------

    def send_chunk(self, payload: bytes | bytearray | memoryview) -> float:
        """Frame and transmit one chunk of the current stream (any
        buffer-protocol object — the body is only joined to its header
        where the transport needs one contiguous buffer); returns the
        modeled per-frame wire time."""
        if self.compress_stream:
            with obs.lap("codec.deflate"):
                header, body = encode_chunk_parts(self._seq, payload, True)
        else:
            header, body = encode_chunk_parts(self._seq, payload)
        frame_len = len(header) + len(body)
        self._seq += 1
        self.chunks_sent += 1
        self.framed_bytes_sent += frame_len
        obs.inc("wire.chunks_sent")
        return self._send_frame_parts(header, body)

    def end_stream(self) -> float:
        """Transmit the terminator; the next chunk opens a new stream."""
        frame = encode_end_of_stream(self._seq)
        self._seq = 0
        self.framed_bytes_sent += len(frame)
        return self._send_frame(frame)

    def recv_chunk(self) -> bytes | None:
        """The next chunk payload, ``None`` at end-of-stream (the
        receiver state resets for the next stream).  Raises the typed
        :class:`~repro.msr.wire.WireFrameError` family on damage."""
        payload = self._decoder.decode(self._recv_frame())
        if payload is None:
            self._decoder = ChunkDecoder()
        else:
            obs.inc("wire.chunks_received")
        return payload

    def iter_chunks(self):
        """Yield chunk payloads until end-of-stream."""
        return iter(self.recv_chunk, None)

    # -- frame transport, overridable ---------------------------------------

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

    def _recv_frame(self) -> bytes:
        return self.recv()


class Channel(BaseChannel):
    """A reliable, ordered in-memory byte channel: ``send`` enqueues the
    payload, ``recv`` dequeues in FIFO order."""

    def __init__(self, link: Link, deadline: float | None = None) -> None:
        # payloads are queued as-is (any buffer-protocol object): senders
        # hand over immutable bytes or detached WriteBuffer storage
        self._queue: deque[bytes] = deque()
        self._deliver = self._queue.append
        super().__init__(link, deadline)

    def recv(self) -> bytes:
        """Receive the next payload (raises if none pending)."""
        if not self._queue:
            raise RuntimeError("channel empty: nothing was sent")
        return self._queue.popleft()

    def reset(self) -> None:
        self._queue.clear()
        super().reset()

    @property
    def pending(self) -> int:
        return len(self._queue)


class FileChannel(BaseChannel):
    """Transfer via a shared file system (the paper's second layer-1
    option: "using either TCP protocol, shared file systems, or remote
    file transfer").  Each ``send`` writes one length-prefixed record to
    the spool file; ``recv`` consumes records in order through a
    persistent read handle (re-reading the whole spool per record would
    be O(n²) bytes over a multi-message session)."""

    #: the persistent read handle, opened lazily (a class default, so
    #: externally attached channel objects keep working)
    _rfh = None

    def __init__(self, path, link: Link = ETHERNET_10M) -> None:
        super().__init__(link)
        self.path = pathlib.Path(path)
        self._read_offset = 0
        self.path.write_bytes(b"")

    def _reader(self):
        if self._rfh is None or self._rfh.closed:
            self._rfh = self.path.open("rb")
        return self._rfh

    def _deliver(self, payload) -> None:
        # fh.write accepts any buffer-protocol object — no bytes() copy
        with self.path.open("ab") as fh:
            fh.write(_RECORD_LEN.pack(len(payload)))
            fh.write(payload)

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
        super().reset()

    def close(self) -> None:
        if self._rfh is not None:
            self._rfh.close()


class SocketChannel(Channel):
    """Transfer over a real local socket pair (the paper's TCP option).

    The bytes genuinely cross a kernel socket; the *reported* time still
    comes from the link model so that measurements stay comparable with
    the in-memory channel (a loopback socket says nothing about a
    10 Mb/s Ethernet).

    Both endpoints live in one thread for whole-message transfers, so
    ``send`` only queues the payload (the in-memory channel's queue);
    ``recv`` pumps it through the socket in chunks small enough never to
    fill the kernel buffer (an 8 MB matrix must not deadlock a
    single-threaded test).

    Frames — all a migration sends, default mode included — are
    different: they are written straight into the socket and may block
    once the kernel buffer fills, so a stream's send side runs in a
    producer thread (``concurrent_stream = True``) while the consumer
    drains ``recv_chunk`` — a real producer/consumer pipeline.
    """

    _CHUNK = 32768

    concurrent_stream = True

    def __init__(self, link: Link = ETHERNET_10M, deadline: float | None = None) -> None:
        self._tx, self._rx = socket.socketpair()
        super().__init__(link, deadline)

    def set_deadline(self, seconds: float | None) -> None:
        """Recv deadline, enforced by the kernel: a peer that connects and
        then stalls raises :class:`ChannelTimeoutError` within *seconds*
        instead of hanging the consumer forever."""
        self.deadline = seconds
        self._rx.settimeout(seconds)

    def recv(self) -> bytes:
        payload = super().recv()
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
                raise self._timed_out(
                    f"peer stalled mid-{context} after {len(out)} of {n} bytes"
                ) from None
            if not piece:
                raise TruncatedFrameError(
                    f"socket closed mid-{context}: got {len(out)} of {n} bytes"
                )
            out += piece
        return bytes(out)

    def _recv_frame(self) -> bytes:
        header = self._read_exact(CHUNK_HEADER_SIZE, "frame header")
        if int.from_bytes(header[:4], "big") not in FRAME_MAGICS:
            # a desynced stream must fail here, before a garbage length
            # field makes us block waiting for bytes that never come
            raise FrameCorruptError(f"bad chunk frame magic {header[:4].hex()}")
        (length,) = _RECORD_LEN.unpack_from(header, 8)
        if length == 0:
            return header
        return header + self._read_exact(length, "frame payload")

    def reset(self) -> None:
        """Fresh-connection semantics for a retry: tear down the failed
        socket pair (which may hold half a frame) and dial a new one."""
        self.close()
        self._tx, self._rx = socket.socketpair()
        super().reset()
        self._rx.settimeout(self.deadline)

    def abort_stream(self) -> None:
        self._tx.close()

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
                key = key.strip()
                if key not in ("seed", "count", "max"):
                    raise ValueError(
                        f"unknown key {key!r} in a seeded fault spec "
                        f"(seed=N[:count=K][:max=M])"
                    )
                params[key] = int(value)
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


class FaultyChannel(BaseChannel):
    """Deterministic fault injection on top of any channel.

    Wraps an inner channel and applies the :class:`FaultPlan` on the one
    send path every message and frame takes.  Every send has an index:
    whole messages, chunk frames and terminators — a pre-copy round's
    among them — share one send counter, so a default-mode attempt has
    two (chunk 0, the terminator).  Pre-copy rounds come first: with
    pre-copy on, the final stream's sends are numbered after every
    round's.  Every send is added to ``bytes_sent`` and refused once the
    connection is down.  Fault semantics:

    - ``drop``: the payload silently vanishes — the receiver sees a
      sequence gap (:class:`~repro.msr.wire.FrameOrderError`) or, when
      nothing else is coming, a recv deadline expiry;
    - ``truncate``: the last *arg* bytes are cut off →
      :class:`~repro.msr.wire.TruncatedFrameError` / checksum mismatch;
    - ``bitflip``: one payload bit flips → the receiving decoder's
      CRC/magic failure (every transfer is framed);
    - ``stall``: the payload wedges in the pipe; the next receive raises
      :class:`ChannelTimeoutError` (the recv deadline firing);
    - ``disconnect``: the connection dies — this and every later
      operation raises :class:`ChannelClosedError` until ``reset()``.
    """

    def __init__(self, inner, plan: FaultPlan, deadline: float | None = None) -> None:
        self.inner = inner
        self.plan = plan
        self.concurrent_stream = inner.concurrent_stream
        self.faults_fired: list[Fault] = []
        self._send_index = 0
        self._stalled = False
        self._closed = False
        super().__init__(inner.link, deadline)

    @property
    def pending(self) -> int:
        return self.inner.pending

    def set_deadline(self, seconds: float | None) -> None:
        self.deadline = seconds
        self.inner.set_deadline(seconds)

    # -- the send path -----------------------------------------------------

    def send(self, payload: bytes) -> float:
        return self._forward(payload, self.inner.send)

    def _send_frame(self, frame: bytes) -> float:
        return self._forward(frame, self.inner._send_frame)

    def _forward(self, payload: bytes, deliver) -> float:
        """Account one outgoing message or frame, apply the fault its
        send index is scheduled for, and hand what is left of it to
        *deliver*."""
        if self._closed:
            raise ChannelClosedError("send on a disconnected channel")
        self.bytes_sent += len(payload)
        index = self._send_index
        self._send_index += 1
        self.messages_sent += 1
        fault = self.plan.take(index)
        if fault is None:
            return deliver(payload)
        self.faults_fired.append(fault)
        obs.inc("faults.injected")
        obs.inc(f"faults.{fault.kind}")
        obs.event("fault", kind=fault.kind, index=index)
        if fault.kind == "truncate":
            return deliver(payload[: max(len(payload) - max(fault.arg, 1), 0)])
        if fault.kind == "bitflip":
            return deliver(_flip_bit(payload, fault.arg))
        if fault.kind == "disconnect":
            self._closed = True
            raise ChannelClosedError(
                f"connection dropped at send #{index} (injected disconnect)"
            )
        # drop or stall: nothing is forwarded
        if fault.kind == "stall":
            self._stalled = True
        return self.link.transfer_time(len(payload))

    # -- the receive path --------------------------------------------------

    def recv(self) -> bytes:
        return self._receive(
            self.inner.recv, True, "nothing arrived (payload lost in transit)"
        )

    def _recv_frame(self) -> bytes:
        # frames on the socket block for real, under the socket's own deadline
        return self._receive(
            self.inner._recv_frame, not self.concurrent_stream,
            "expected chunk frame never arrived",
        )

    def _receive(self, read, queued: bool, lost: str) -> bytes:
        if self._closed:
            raise ChannelClosedError("recv on a disconnected channel")
        if self._stalled:
            self._stalled = False
            raise self._timed_out("peer stalled mid-transfer (injected stall)")
        # a message queue cannot block: nothing pending after a dropped
        # payload is the deadline firing
        if queued and self.inner.pending == 0:
            raise self._timed_out(lost)
        return read()

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Fresh-connection semantics for a retry: clears the disconnect /
        stall state and rewinds the per-attempt send counter.  Spent
        transient faults stay spent — the retry meets the link as it is
        *now*, not a replay of the failure."""
        self._send_index = 0
        self._stalled = False
        self._closed = False
        super().reset()
        self.inner.reset()

    def abort_stream(self) -> None:
        self.inner.abort_stream()

    def close(self) -> None:
        self.inner.close()
