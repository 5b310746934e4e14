"""The machine-independent migration payload format.

Layout (all integers big-endian):

.. code-block:: text

    header:
        u32  magic          'MIGR'
        u8   version
        u16  n_frames
        n_frames x (u32 func_index, u32 resume_pc)   # outermost first
    frame data (innermost frame first, matching the paper's example):
        per frame: u16 n_live, n_live x (u16 var_index, record)
    globals:
        u32 n_globals, n_globals x (u32 global_index, record)
    tail:
        (u8 marker, body)*               # to the end of the payload

A *record* describes one pointer target or variable (§3.2's "pointer
header and offset" format).  It opens with one *lead* byte that says
what the record is and which of its fields travel:

.. code-block:: text

    record  := NULL | REF | BLOCK
    lead    := u8   bits 0-1 tag (0 NULL, 1 REF, 2 BLOCK); bits 2-3 BlockKind;
                    BLOCK only: bit 4 FLAT, bit 5 "count follows",
                    bit 6 "ordinal follows"; all other bits 0
    logical := (kind from lead) u32 a, u32 b iff kind == STACK
    NULL    := the single byte 0x00
    REF     := lead logical u32 ordinal
    BLOCK   := lead logical u16 type_id [u32 count iff != 1]
               [u32 ordinal iff != 0] contents
    contents := raw xdr bytes                # FLAT: one dense primitive run
              | per-cell (xdr scalar | record)

``logical`` is the pointer header — the machine-independent block id
``(kind, a, b)`` of :mod:`repro.msr.msrlt`; only a stack id has a ``b``
(the variable's slot), so only a stack id ships one.  ``ordinal`` is the
element offset inside the block.  The common records are 7 bytes (BLOCK
of a heap or global unit) and 9 bytes (REF to heap or global); a field
that would hold its constant (``b`` 0, ``count`` 1, ``ordinal`` 0) is
left out, not sent.

Encodings are canonical: a count field saying 1, an ordinal field saying
0, tag 3, kind 3, BLOCK bits on a REF or bit 7 set is a corrupt payload
(:func:`lead_fault` names which), and no field is read and dropped,
so every state has exactly one byte image: a payload the restorer
accepts re-collects to itself.  The plans-on/off byte-identity oracle
depends on it.

Widths are fixed *per lead byte* on purpose, not varints: a record is
still one ``struct`` call (:data:`RECORDS` holds the ``Struct`` of every
defined lead), and a run of like records is a fixed-stride NumPy array
(:func:`record_dtype`) — :mod:`repro.msr.graphplan` batches chain rows
and REF runs that way, and simply ends a batch where a row's lead
differs from the one it compiled for.

A ``BLOCK`` appears for the first (depth-first) visit of each memory
block; every later reference is a ``REF``.  Cycles are safe because the
restorer registers the block mapping *before* reading its contents.

The tail section
----------------

A block the pre-copy destination already holds byte-fresh is not
shipped again: it is a *visited* block (§3.1's rule applied across
passes), so a pointer to it is a ``REF``.  What the globals do not
reach travels in the tail section, which runs to the end of the
payload: every pre-copy delta round is ``u32 round_no`` and a tail
section, and every full stream ends in one — empty in a plain
migration, so a plain stream is byte for byte a final stream with
nothing held.  A pass born without held blocks reads no markers: any
byte after its globals is refused as trailing, since a marker there
could only name a block the same pass restored.

.. code-block:: text

    tail    := (u8 marker, body)*        # to the end of the payload
    1 root  := record                    # BLOCK: in place if held, else carved
    2 runs  := xlogical u32 n_runs  n_runs x (u32 first_unit, u32 n_units, contents)
    3 freed := xlogical                  # a held heap block the source freed
    xlogical := u8 kind, u32 a, u32 b iff kind == STACK

A *unit* is the type's innermost non-array element
(:class:`~repro.msr.ti.TypeInfo`: ``unit``, ``unit_size``), so a run
never splits a struct.  The contents of a run are, on both sides, the
contents of a block of ``n_units`` x the unit type at ``addr +
first_unit * unit_size`` (:func:`unit_block`): the same plan, the same
records.  Runs are not empty, ascend without overlap and stay inside
their block.  ``xlogical`` (:func:`write_logical` /
:func:`read_logical`) is 5 bytes for a heap or global id.

A round writes freed markers first, then runs, then one root per stale
block no earlier marker reached, in logical-id order; the final stream
writes only roots.  Which dirty block takes the run form is the source's
decision (:func:`repro.msr.collect.unit_runs`): only one whose
destination copy was byte-fresh before the slice, and only when the
units left out are sure to weigh more than the run headers.  A round
cuts a marker whose walk met a pointer with no shippable target (the
stack is unregistered while the source runs) back out: that block is
*absent*, and waits for a later pass
(:class:`repro.msr.collect.DeltaDefer`).

The wire envelope
-----------------

A payload never travels bare.  Every copy of the state — a transfer
attempt, a pre-copy round, a checkpoint file — is one *chunk stream* of
self-delimiting frames, and every byte on a channel belongs to one:

.. code-block:: text

    stream  := MCHK|MCHZ seq 0 … seq n-1  terminator(seq n)
    attempt := stream
    round   := stream
    file    := 'MIGCKPT2'  fingerprint  stream(one chunk)

    frame:
        u32  magic        'MCHK' raw chunk · 'MCHZ' deflated chunk
        u32  seq          0-based, strictly consecutive per stream
        u32  payload_len  0 marks end-of-stream (no payload follows)
        u32  crc32        zlib CRC-32 of the (raw) payload bytes
        payload_len bytes of payload

The wire carries state and nothing else: no frame names a sender, a
trace or a clock, so the same state sends the same bytes every time.

There is one schedule, the paper's Table 1 discipline: the whole
payload is collected, sent, and restored once the terminator is in.
The engine's ``streaming=`` flag only says where the frames are cut.
By default the whole payload is chunk 0, so the attempt is two frames —
one chunk, terminator.  Streamed, it is cut into ``chunk_size`` chunks,
each received as it is sent and joined once the terminator is in.  The
concatenated chunk payloads are the same bytes either way
(``collect_state``'s), so everything above the framing layer cannot
tell the two apart.

A pre-copy round (:mod:`repro.migration.precopy`) is a stream of its
own, cut at the same chunk size; a checkpoint file
(:mod:`repro.migration.checkpoint`) is its header followed by exactly
the bytes of one serial attempt.

There is ONE frame codec: :func:`encode_chunk` writes a frame (in the
chunk's own storage when it is an :class:`OwnedChunk`, a collected
payload sent as one chunk; once copied behind the header otherwise),
:func:`decode_chunk` validates one, and :class:`ChunkDecoder` adds the
sequence rule for a chunk stream.
Integrity is therefore the *receiver's* and decided from wire bytes
alone: a short read raises :class:`TruncatedFrameError`, a bad magic or
CRC raises :class:`FrameCorruptError`, and a non-consecutive sequence
number (reordered, duplicated, or dropped frame) raises
:class:`FrameOrderError` — all subclasses of :class:`WireFrameError`.

Adaptive compression
--------------------

Data chunks have an opt-in compressed form (``migrate(...,
compress=True)`` / ``repro migrate --compress``, streamed or not): a
chunk deflated with zlib ships under magic ``'MCHZ'``; its
``payload_len`` counts the *stored* (compressed) bytes while its
``crc32`` is computed over the **raw** payload, so end-to-end integrity
is exactly that of a raw frame.

Compression is *adaptive*: the sender keeps the compressed form only
when it shrinks the chunk by at least :data:`MIN_COMPRESSION_GAIN`
(10%) — already-dense numeric data ships raw rather than paying
decompression for nothing.  The receiver accepts both forms
unconditionally (the frame magic is the negotiation).  With compression
off the bytes are unchanged.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro import obs
from repro.arch.buffers import ReadBuffer, WriteBuffer
from repro.msr.msrlt import BlockKind, MemoryBlock

__all__ = [
    "MAGIC",
    "VERSION",
    "TAG_NULL",
    "TAG_REF",
    "TAG_BLOCK",
    "LEAD_FLAT",
    "LEAD_COUNT",
    "LEAD_ORDINAL",
    "lead_byte",
    "lead_kind",
    "lead_fault",
    "record_fields",
    "record_dtype",
    "RECORDS",
    "WireHeader",
    "write_header",
    "read_header",
    "write_logical",
    "read_logical",
    "TAIL_ROOT",
    "TAIL_RUNS",
    "TAIL_FREED",
    "RUN_HEADER",
    "unit_block",
    "CHUNK_MAGIC",
    "CHUNK_MAGIC_Z",
    "FRAME_MAGICS",
    "CHUNK_HEADER_SIZE",
    "MIN_COMPRESSION_GAIN",
    "WireFrameError",
    "TruncatedFrameError",
    "FrameCorruptError",
    "FrameOrderError",
    "OwnedChunk",
    "encode_chunk",
    "encode_end_of_stream",
    "decode_chunk",
    "ChunkDecoder",
    "PAYLOAD_MAGIC_Z",
    "compress_payload",
    "expand_payload",
]

MAGIC = 0x4D494752  # 'MIGR'
VERSION = 3

TAG_NULL = 0
TAG_REF = 1
TAG_BLOCK = 2

#: lead bits of a ``BLOCK`` record: its contents are one dense primitive
#: run; a count field (``!= 1``) follows; an ordinal field (``!= 0``) follows
LEAD_FLAT = 0x10
LEAD_COUNT = 0x20
LEAD_ORDINAL = 0x40

#: field name -> (``struct`` code, NumPy dtype) — all big-endian
_FIELD_CODES = {
    "lead": ("B", "u1"),
    "a": ("I", ">u4"),
    "b": ("I", ">u4"),
    "type_id": ("H", ">u2"),
    "count": ("I", ">u4"),
    "ordinal": ("I", ">u4"),
}


def lead_byte(tag: int, kind):
    """The lead of a *tag* record for a block of *kind* (an ``int``, or a
    NumPy array of kinds).  A ``BLOCK``'s flag and presence bits are
    or-ed in by whoever knows its fields."""
    return tag | kind << 2


def lead_kind(lead):
    """The BlockKind a ``REF`` or ``BLOCK`` lead names (an ``int``, or a
    NumPy array of leads)."""
    return lead >> 2 & 3


def lead_fault(lead: int) -> str | None:
    """What makes *lead* an undefined lead byte — the restorer's words
    for a corrupt record — or ``None`` for a defined one."""
    tag, kind = lead & 3, lead_kind(lead)
    if tag == 3:
        return "bad record tag 3"
    if lead & 0x80:
        return f"lead {lead:#04x} has the reserved bit 7 set"
    if tag == TAG_NULL:
        return f"lead {lead:#04x}: NULL is the single byte 0x00" if lead else None
    if kind == 3:
        return f"lead {lead:#04x} names unknown block kind 3"
    if tag == TAG_REF and lead >> 4:
        return f"lead {lead:#04x} carries BLOCK bits on a REF"
    return None


def record_fields(lead: int) -> tuple[str, ...]:
    """The fixed-width fields the record opening with (defined) *lead*
    consists of, in wire order: a whole ``NULL`` or ``REF`` record, a
    ``BLOCK`` record up to its contents."""
    tag, kind = lead & 3, lead_kind(lead)
    if tag == TAG_NULL:
        return ("lead",)
    fields = ["lead", "a", "b"] if kind == BlockKind.STACK else ["lead", "a"]
    if tag == TAG_REF:
        return (*fields, "ordinal")
    fields.append("type_id")
    if lead & LEAD_COUNT:
        fields.append("count")
    if lead & LEAD_ORDINAL:
        fields.append("ordinal")
    return tuple(fields)


def record_dtype(lead: int, prefix: str = "") -> list[tuple[str, str]]:
    """:func:`record_fields` of *lead* as NumPy structured-dtype fields
    (names prefixed with *prefix*): one element is one such record."""
    return [(prefix + name, _FIELD_CODES[name][1]) for name in record_fields(lead)]


#: per lead byte, the ``Struct`` of :func:`record_fields` — lead
#: included, so ``pack(lead, ...)`` / ``unpack`` is the whole record in
#: one call — or ``None`` where :func:`lead_fault` has something to say
RECORDS = tuple(
    None
    if lead_fault(lead)
    else struct.Struct(">" + "".join(_FIELD_CODES[f][0] for f in record_fields(lead)))
    for lead in range(256)
)


@dataclass
class WireHeader:
    """Execution-state header of a migration payload: the frame table
    (magic and version are the format's, not the state's)."""

    #: (function index, resume pc) outermost frame first
    frames: list[tuple[int, int]]


def write_header(buf: WriteBuffer, header: WireHeader) -> None:
    """Serialize the payload header (magic, version, frame table)."""
    buf.write_u32(MAGIC)
    buf.write_u8(VERSION)
    buf.write_u16(len(header.frames))
    for func_idx, resume_pc in header.frames:
        buf.write_u32(func_idx)
        buf.write_u32(resume_pc)


def read_header(buf: ReadBuffer) -> WireHeader:
    """Parse and validate the payload header."""
    magic = buf.read_u32()
    if magic != MAGIC:
        raise ValueError(f"bad migration payload magic {magic:#x}")
    version = buf.read_u8()
    if version != VERSION:
        raise ValueError(
            f"unsupported payload version {version}: this build reads and "
            f"writes version {VERSION} only"
        )
    n = buf.read_u16()
    return WireHeader([(buf.read_u32(), buf.read_u32()) for _ in range(n)])


def write_logical(buf: WriteBuffer, logical: tuple) -> None:
    """Serialize a machine-independent block id outside any record (the
    runs and freed markers of a pre-copy tail section): ``u8 kind``,
    ``u32 a`` and, for a stack id only, ``u32 b``."""
    kind, a, b = logical
    buf.write_u8(kind)
    buf.write_u32(a)
    if kind == BlockKind.STACK:
        buf.write_u32(b)


def read_logical(buf: ReadBuffer) -> tuple:
    """Parse a machine-independent block id.  The kind byte is not
    judged here: whoever looks the id up refuses one it does not hold."""
    kind, a = buf.read_u8(), buf.read_u32()
    return (kind, a, buf.read_u32() if kind == BlockKind.STACK else 0)


#: the tail section's markers
TAIL_ROOT, TAIL_RUNS, TAIL_FREED = 1, 2, 3
#: what precedes the contents of one run: ``first_unit``, ``n_units``
RUN_HEADER = struct.Struct(">II")


def unit_block(block: MemoryBlock, info, first: int, n: int) -> MemoryBlock:
    """Units ``first .. first + n`` of *block* as a block of their own:
    what a run's contents are the contents of."""
    size = info.unit_size
    return MemoryBlock(block.addr + first * size, info.unit, n, n * size, block.logical)


# -- frames -------------------------------------------------------------------

CHUNK_MAGIC = 0x4D43484B  # 'MCHK' — raw payload chunk
CHUNK_MAGIC_Z = 0x4D43485A  # 'MCHZ' — zlib-compressed payload chunk
#: every magic a frame on a channel may open with
FRAME_MAGICS = (CHUNK_MAGIC, CHUNK_MAGIC_Z)
_FRAME_HEADER = struct.Struct(">IIII")  # magic, seq, payload_len, crc32
CHUNK_HEADER_SIZE = _FRAME_HEADER.size

#: a compressed form is kept only when it shrinks the payload this much
MIN_COMPRESSION_GAIN = 0.10


class WireFrameError(Exception):
    """A frame is damaged or out of protocol."""


class TruncatedFrameError(WireFrameError):
    """A frame (header or payload) was cut short mid-stream.

    Deliberately NOT an :class:`EOFError`: that is a payload cut short
    (a restore's underrun), while a truncated frame is damage on the
    wire, told apart by the receiver before any restore reads.
    """


class FrameCorruptError(WireFrameError):
    """A frame's magic or CRC-32 does not check out."""


class FrameOrderError(WireFrameError):
    """Frames arrived out of sequence (reordered, duplicated, or lost)."""


class OwnedChunk(bytearray):
    """A payload chunk whose storage is handed over with it: the frame
    is built in that storage, not in a copy (every shipped collection
    writes its whole payload into one)."""


def encode_chunk(
    seq: int, payload: bytes | bytearray | memoryview, compress: bool = False
) -> bytearray:
    """Frame one non-empty payload chunk — the one frame encoder.

    The CRC is taken over the payload where it lies.  An
    :class:`OwnedChunk` then becomes the frame itself: the header goes in
    ahead of the payload in its own storage (a move within it, where a
    second buffer would be a copy), so the chunk is consumed.  Any other
    buffer-protocol object is copied once, behind the header, into a new
    frame.

    With *compress*, the payload is deflated and the compressed form is
    kept, under ``'MCHZ'``, only if it is at least
    :data:`MIN_COMPRESSION_GAIN` smaller (adaptive skip — incompressible
    chunks ship raw under the ordinary magic).  The CRC-32 always covers
    the **raw** payload.
    """
    if not payload:
        raise ValueError("empty frame payload is reserved for end-of-stream")
    crc = zlib.crc32(payload)
    header = _FRAME_HEADER.pack(CHUNK_MAGIC, seq, len(payload), crc)
    if compress:
        packed = zlib.compress(payload)
        if len(packed) <= len(payload) * (1.0 - MIN_COMPRESSION_GAIN):
            payload = packed
            header = _FRAME_HEADER.pack(CHUNK_MAGIC_Z, seq, len(packed), crc)
    if type(payload) is OwnedChunk:
        payload[:0] = header
        return payload
    frame = bytearray(header)
    frame += payload
    return frame


def encode_end_of_stream(seq: int) -> bytes:
    """The terminator frame: ``payload_len == 0``, no payload bytes."""
    return _FRAME_HEADER.pack(CHUNK_MAGIC, seq, 0, 0)


def decode_chunk(
    frame: bytes | bytearray | memoryview,
) -> tuple[int, bytes | memoryview]:
    """Validate and unwrap one complete frame — the one place a frame is
    checked.

    Returns ``(seq, payload)``; an end-of-stream frame yields
    ``(seq, b"")``.  For an uncompressed frame the payload is a
    zero-copy ``memoryview`` into *frame* (the caller owns the frame
    bytes, so the view lives as long as they do); compressed frames
    necessarily inflate into fresh ``bytes``.  Raises the typed errors
    documented in the module docstring; sequence checking is the
    caller's job (see :class:`ChunkDecoder`) because only the caller
    knows stream state.
    """
    frame = memoryview(frame)
    if len(frame) < CHUNK_HEADER_SIZE:
        raise TruncatedFrameError(
            f"frame header truncated: {len(frame)} of {CHUNK_HEADER_SIZE} bytes"
        )
    magic, seq, length, crc = _FRAME_HEADER.unpack_from(frame, 0)
    if magic not in FRAME_MAGICS:
        raise FrameCorruptError(f"bad frame magic {magic:#010x}")
    payload: bytes | memoryview = frame[CHUNK_HEADER_SIZE:]
    if len(payload) != length:
        raise TruncatedFrameError(
            f"frame {seq} claims {length} payload bytes, carries {len(payload)}"
        )
    if length == 0:
        if magic == CHUNK_MAGIC_Z:
            raise FrameCorruptError(
                f"end-of-stream frame {seq} must use the raw chunk magic"
            )
        if crc != 0:
            raise FrameCorruptError(f"end-of-stream frame {seq} has nonzero CRC")
        return seq, b""
    if magic == CHUNK_MAGIC_Z:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise FrameCorruptError(
                f"frame {seq} compressed payload is undecodable: {exc}"
            ) from None
    actual = zlib.crc32(payload)
    if actual != crc:
        raise FrameCorruptError(
            f"frame {seq} CRC mismatch: header {crc:#010x}, payload {actual:#010x}"
        )
    return seq, payload


class ChunkDecoder:
    """Stream-side frame validation: decode + strict sequence checking,
    for one chunk stream (a channel replaces it at every terminator, so
    each stream starts at sequence 0).

    Feed complete frames in arrival order via :meth:`decode`; it returns
    the payload, or ``None`` for the end-of-stream frame.  Any gap,
    duplicate, or backward jump in sequence numbers raises
    :class:`FrameOrderError`; frames after end-of-stream raise too.
    """

    def __init__(self) -> None:
        self.expected_seq = 0
        self.finished = False

    def decode(self, frame: bytes | bytearray | memoryview) -> bytes | None:
        if self.finished:
            raise FrameOrderError("frame arrived after end-of-stream")
        if bytes(memoryview(frame)[:4]) == b"MCHZ":
            with obs.lap("codec.inflate"):
                seq, payload = decode_chunk(frame)
        else:
            seq, payload = decode_chunk(frame)
        if seq != self.expected_seq:
            raise FrameOrderError(
                f"frame sequence break: expected {self.expected_seq}, got {seq}"
            )
        self.expected_seq += 1
        if not payload:
            self.finished = True
            return None
        return payload


# -- whole-payload compression ------------------------------------------------
# No product path calls this pair any more (serial ``--compress`` ships an
# 'MCHZ' chunk); it stays only because the frozen benchmark probe
# ``benchmarks/suite/layers.py::probe_wire`` imports it (ROADMAP item 5b).

PAYLOAD_MAGIC_Z = 0x4D49475A  # 'MIGZ' — compressed whole-payload envelope
_PAYLOAD_Z_HEADER = struct.Struct(">III")  # magic, raw_len, crc32(raw)


def compress_payload(payload: bytes) -> bytes:
    """Adaptively compress a whole payload.

    Returns a ``'MIGZ'`` envelope when zlib shrinks the payload by at
    least :data:`MIN_COMPRESSION_GAIN`, otherwise the payload unchanged.
    Raw payloads start with the ``'MIGR'`` migration magic, so
    :func:`expand_payload` can tell the two apart without negotiation.
    """
    packed = zlib.compress(payload)
    stored = _PAYLOAD_Z_HEADER.size + len(packed)
    if stored <= len(payload) * (1.0 - MIN_COMPRESSION_GAIN):
        return (
            _PAYLOAD_Z_HEADER.pack(PAYLOAD_MAGIC_Z, len(payload), zlib.crc32(payload))
            + packed
        )
    return payload


def expand_payload(data: bytes) -> bytes:
    """Undo :func:`compress_payload` — a no-op for raw payloads."""
    if len(data) < _PAYLOAD_Z_HEADER.size or data[:4] != b"MIGZ":
        return data
    _, raw_len, crc = _PAYLOAD_Z_HEADER.unpack_from(data, 0)
    try:
        payload = zlib.decompress(data[_PAYLOAD_Z_HEADER.size :])
    except zlib.error as exc:
        raise FrameCorruptError(f"compressed payload is undecodable: {exc}") from None
    if len(payload) != raw_len:
        raise FrameCorruptError(
            f"compressed payload inflated to {len(payload)} bytes, "
            f"envelope claims {raw_len}"
        )
    actual = zlib.crc32(payload)
    if actual != crc:
        raise FrameCorruptError(
            f"payload CRC mismatch: envelope {crc:#010x}, payload {actual:#010x}"
        )
    return payload
