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
(``Link.transfer_time`` of the framed bytes), in series with collection
and restoration: nothing overlaps them (DESIGN.md §6).

Failure
-------

Transport failure is a first-class, *typed* event (DESIGN.md §7):

- every channel has ``reset()`` (fresh-connection semantics for a
  retry).  A stream is sent and received on the caller's thread, so no
  read blocks: what is not queued by the time it is read never comes,
  and every channel's ``recv`` raises :class:`ChannelTimeoutError` when
  nothing is queued (a silently stalled peer is a typed error, never a
  hang);
- :class:`FaultyChannel` wraps any channel and deterministically injects
  drops, truncations, bit-flips, stalls, and disconnects at chosen send
  indices per a :class:`FaultPlan`, so every failure scenario is
  reproducible (CLI: ``repro migrate --fault``).  Every send has an
  index: whole messages, chunk frames and terminators (pre-copy rounds'
  included) share one counter.
"""

from __future__ import annotations

import random
import socket
from collections import deque
from dataclasses import dataclass

from repro import obs
from repro.msr.wire import ChunkDecoder, encode_chunk, encode_end_of_stream

__all__ = [
    "Link",
    "BaseChannel",
    "Channel",
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


class ChannelError(Exception):
    """A channel could not deliver or receive a payload."""


class ChannelTimeoutError(ChannelError):
    """Nothing was queued to receive: the peer stalled or the data was
    lost."""


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
    engine drives (``reset``, ``close``).

    A subclass supplies ``_deliver`` (put one message on its wire) and
    ``recv`` (raising :class:`ChannelTimeoutError` when nothing is
    queued).  By default a frame is just one more
    message; a channel whose frames take another path (the socket's
    bypass ``send()``) overrides ``_send_frame``.  Writes never block:
    a stream's send side and its receive side share the caller's
    thread.
    """

    #: no channel needs its stream fed from another thread; only the
    #: frozen benchmark suite's ``layers.ship_chunks`` still reads this
    concurrent_stream = False

    def __init__(self, link: Link) -> None:
        self.link = link
        self.bytes_sent = 0
        #: bytes of every frame built here, terminators included
        self.framed_bytes_sent = 0
        #: chunk frames sent and handed up, terminators excluded
        self.chunks_sent = 0
        self.chunks_received = 0
        #: bytes accepted while a pre-copy phase ran (booked by
        #: :func:`~repro.migration.precopy.run_precopy`)
        self.delta_bytes_sent = 0
        #: opt-in per-chunk zlib compression (``migrate(..., compress=True)``)
        self.compress_stream = False
        self._seq = 0
        self._decoder = ChunkDecoder()

    # -- whole messages ----------------------------------------------------

    def send(self, payload: bytes | bytearray | memoryview) -> float:
        """Transmit *payload* (any buffer-protocol object); returns the
        modeled wire time in seconds."""
        self._deliver(payload)
        self.bytes_sent += len(payload)
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

    def close(self) -> None:
        """Release what the channel holds open (nothing, by default)."""

    # -- chunk streams ('MCHK'/'MCHZ') -------------------------------------

    def send_chunk(self, payload: bytes | bytearray | memoryview) -> float:
        """Frame and transmit one chunk of the current stream (any
        buffer-protocol object, copied once into its frame, or an
        :class:`~repro.msr.wire.OwnedChunk`, framed in its own storage);
        returns the modeled per-frame wire time.  The ``frame`` lap
        covers header, CRC (and deflate, lapped on its own too) and the
        enqueue."""
        with obs.lap("frame"):
            if self.compress_stream:
                with obs.lap("codec.deflate"):
                    frame = encode_chunk(self._seq, payload, True)
            else:
                frame = encode_chunk(self._seq, payload)
            self._seq += 1
            self.chunks_sent += 1
            self.framed_bytes_sent += len(frame)
            return self._send_frame(frame)

    def end_stream(self) -> float:
        """Transmit the terminator; the next chunk opens a new stream."""
        with obs.lap("frame"):
            frame = encode_end_of_stream(self._seq)
            self._seq = 0
            self.framed_bytes_sent += len(frame)
            return self._send_frame(frame)

    def recv_chunk(self) -> bytes | None:
        """The next chunk payload, ``None`` at end-of-stream (the
        receiver state resets for the next stream).  Raises the typed
        :class:`~repro.msr.wire.WireFrameError` family on damage.  The
        ``deframe`` lap covers the dequeue, the CRC check and the
        sequence check."""
        with obs.lap("deframe"):
            payload = self._decoder.decode(self.recv())
            if payload is None:
                self._decoder = ChunkDecoder()
            else:
                self.chunks_received += 1
            return payload

    def iter_chunks(self):
        """Yield chunk payloads until end-of-stream."""
        return iter(self.recv_chunk, None)

    # -- frame transport, overridable ---------------------------------------

    def _send_frame(self, frame: bytes) -> float:
        return self.send(frame)


class Channel(BaseChannel):
    """A reliable, ordered in-memory byte channel: ``send`` enqueues the
    payload, ``recv`` dequeues in FIFO order."""

    def __init__(self, link: Link) -> None:
        # payloads are queued as-is (any buffer-protocol object): senders
        # hand over immutable bytes or detached WriteBuffer storage
        self._queue: deque[bytes] = deque()
        self._deliver = self._queue.append
        super().__init__(link)

    def recv(self) -> bytes:
        """Receive the next payload.  The sender runs on this thread:
        what is not queued by now never comes."""
        if not self._queue:
            raise ChannelTimeoutError("recv timed out: peer stalled, channel empty")
        return self._queue.popleft()

    def reset(self) -> None:
        self._queue.clear()
        super().reset()


class SocketChannel(Channel):
    """Transfer over a real local socket pair (the paper's TCP option).

    The bytes genuinely cross a kernel socket; the *reported* time still
    comes from the link model so that measurements stay comparable with
    the in-memory channel (a loopback socket says nothing about a
    10 Mb/s Ethernet).

    Both endpoints live in the caller's thread, so a send only queues
    (the in-memory channel's queue) and the receive pumps what it takes
    off the queue through the socket in pieces small enough never to
    fill the kernel buffer (an 8 MB matrix must not deadlock).  Whole
    messages ride ``send()``; frames — all a migration sends — bypass
    it, so ``bytes_sent`` and ``framed_bytes_sent`` are disjoint here.
    """

    _CHUNK = 32768

    def __init__(self, link: Link = ETHERNET_10M) -> None:
        self._tx, self._rx = socket.socketpair()
        super().__init__(link)

    def _pump(self, payload) -> bytes:
        """Carry one queued message or frame through the socket pair."""
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

    def recv(self) -> bytes:
        return self._pump(super().recv())

    @property
    def accepted_bytes(self) -> int:
        # frames are queued past send()
        return self.bytes_sent + self.framed_bytes_sent

    def _send_frame(self, frame: bytes) -> float:
        self._deliver(frame)
        return self.link.transfer_time(len(frame))

    def reset(self) -> None:
        """Fresh-connection semantics for a retry: tear down the failed
        socket pair and dial a new one."""
        self.close()
        self._tx, self._rx = socket.socketpair()
        super().reset()

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
        if n_faults < 0:
            raise ValueError(f"count must be >= 0, got {n_faults}")
        if max_index < 1:
            raise ValueError(f"max must be >= 1, got {max_index}")
        rng = random.Random(seed)
        return cls(
            Fault(rng.choice(list(kinds)), rng.randrange(max_index),
                  rng.randrange(1, 64), persistent)
            for _ in range(n_faults)
        )

    def __str__(self) -> str:
        return ",".join(str(f) for f in self.faults) or "<no faults>"


def _flip_bit(payload: bytes, bit: int) -> bytes:
    """*payload* with bit *bit* (modulo its length in bits) flipped; an empty
    payload has no bit to flip and goes out as it came."""
    out = bytearray(payload)
    if not out:
        return b""
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

    - ``drop``: the payload silently vanishes — a receiver that reads
      each frame as it is sent finds nothing queued, the inner
      channel's own :class:`ChannelTimeoutError`; one further behind
      sees a sequence gap (:class:`~repro.msr.wire.FrameOrderError`);
    - ``truncate``: the last *arg* bytes are cut off →
      :class:`~repro.msr.wire.TruncatedFrameError` / checksum mismatch;
    - ``bitflip``: one payload bit flips → the receiving decoder's
      CRC/magic failure (every transfer is framed);
    - ``stall``: the payload wedges in the pipe; the next receive raises
      :class:`ChannelTimeoutError`;
    - ``disconnect``: the connection dies — this and every later
      operation raises :class:`ChannelClosedError` until ``reset()``.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.faults_fired: list[Fault] = []
        self._send_index = 0
        self._stalled = False
        self._closed = False
        super().__init__(inner.link)

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
        fault = self.plan.take(index)
        if fault is None:
            return deliver(payload)
        self.faults_fired.append(fault)
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
        if self._closed:
            raise ChannelClosedError("recv on a disconnected channel")
        if self._stalled:
            self._stalled = False
            raise ChannelTimeoutError(
                "recv timed out: peer stalled mid-transfer (injected stall)"
            )
        # a dropped payload is the inner channel's own timeout
        return self.inner.recv()

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

    def close(self) -> None:
        self.inner.close()
