"""Robustness: corrupted migration payloads must fail controlled.

A migration receiver faces untrusted bytes; random corruption must
surface as a typed error (wire/restore/memory/checkpoint error classes),
never as an unhandled crash, an infinite loop, or — worst — a silently
corrupted process that resumes with wrong data *and* no exception while
claiming success.  The property tests flip/truncate/duplicate bytes and
check the restorer either rejects the payload or produces a process
whose observable behaviour is checked.
"""

import struct
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ALPHA, DEC5000, SPARC20, X86
from repro.arch.buffers import ReadBuffer
from repro.migration import engine as engine_module
from repro.migration.engine import (
    DAMAGE_ERRORS,
    MigrationAbortedError,
    MigrationEngine,
    MigrationError,
    collect_state,
    restore_state,
    restore_state_stream,
)
from repro.msr.collect import Collector
from repro.msr.msrlt import BlockKind, MSRLTError
from repro.msr.restore import RestoreError
from repro.msr.wire import (
    ESCAPED,
    RECORDS,
    ChunkDecoder,
    WireFrameError,
    encode_chunk,
    encode_end_of_stream,
    lead_fault,
    read_header,
)
from repro.vm.memory import Memory, MemoryFault
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import (
    assert_table_whole,
    block_header,
    plans_off,
    ref_record,
    spelled_out,
    stopped_at,
)

PROGRAM = """
struct link { int v; struct link *next; };
struct link *chain;
double numbers[8];
int main() {
    int i;
    for (i = 0; i < 6; i++) {
        struct link *e = (struct link *) malloc(sizeof(struct link));
        e->v = i; e->next = chain; chain = e;
        numbers[i] = i * 1.5;
    }
    migrate_here();
    { int s = 0; struct link *p;
      for (p = chain; p != NULL; p = p->next) s += p->v;
      printf("%d %.1f", s, numbers[5]); }
    return 0;
}
"""

_PROG = compile_program(PROGRAM, poll_strategy="user")

#: how the restore side may reject a malformed payload: exactly the
#: family the engine turns into a retryable ``RestoreError`` (anything
#: else under a restore is a bug, and fails a migration fast)
REJECTED = (MigrationError, *DAMAGE_ERRORS)

#: every exception class a process restored from a payload that was
#: accepted damaged may legitimately raise when it runs on
CONTROLLED = (
    MigrationError,
    RestoreError,
    MSRLTError,
    MemoryFault,
    ValueError,
    EOFError,
    KeyError,
    IndexError,
    OverflowError,
)


def _payload() -> bytes:
    proc = Process(_PROG, DEC5000)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    payload, _ = collect_state(proc)
    return payload


_PAYLOAD = _payload()


def _try_restore(data: bytes, arch=SPARC20):
    dest = Process(_PROG, arch)
    restore_state(_PROG, data, dest)
    return dest


class TestCorruption:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=len(_PAYLOAD) - 1),
        st.integers(min_value=1, max_value=255),
    )
    def test_single_byte_flip_is_controlled(self, pos, xor):
        data = bytearray(_PAYLOAD)
        data[pos] ^= xor
        try:
            dest = _try_restore(bytes(data))
        except REJECTED:
            return  # rejected: good
        # accepted: the flip hit pure data (a tag value, a float byte…);
        # the wire is canonical, so the state it landed re-collects to
        # exactly these bytes, and the process must still run to
        # completion or fail controlled
        assert collect_state(dest)[0] == bytes(data)
        try:
            dest.run(max_steps=200_000)
        except CONTROLLED:
            pass

    @pytest.mark.parametrize("arch", [DEC5000, SPARC20], ids=lambda a: a.name)
    def test_every_accepted_header_flip_recollects_to_itself(self, arch):
        """Every single-bit flip of the header (magic, version, frame
        table), restored on either byte order: refused, or the restored
        process collects back to exactly the bytes accepted — the header
        holds no field the restorer reads and drops.  The unflipped
        payload is the first case."""
        header = ReadBuffer(_PAYLOAD)
        read_header(header)
        for bit in range(-1, header.position * 8):
            data = bytearray(_PAYLOAD)
            if bit >= 0:
                data[bit // 8] ^= 1 << (bit % 8)
            try:
                dest = _try_restore(bytes(data), arch)
            except REJECTED:
                continue
            assert collect_state(dest)[0] == bytes(data), f"bit {bit}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=len(_PAYLOAD) - 1))
    def test_truncation_is_controlled(self, cut):
        with pytest.raises(REJECTED):
            _try_restore(_PAYLOAD[:cut])

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_appended_garbage_rejected(self, tail):
        with pytest.raises(REJECTED):
            _try_restore(_PAYLOAD + tail)

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_random_bytes_rejected(self, blob):
        with pytest.raises(REJECTED):
            _try_restore(blob)

    def test_pristine_payload_still_works(self):
        """Guard for the fixture itself."""
        dest = _try_restore(_PAYLOAD)
        dest.run()
        assert dest.stdout == "15 7.5"


    def test_root_ref_must_name_the_expected_block(self, monkeypatch):
        """A structurally valid payload whose record for global 1 is a
        REF to global 0: accepted, it would leave `numbers` unrestored
        without a word (root REFs are ordinary in a pre-copy final
        stream, where every clean global is one)."""

        class Misrouting(Collector):
            def save_variable(self, block):
                if block.logical == (BlockKind.GLOBAL, 1, 0):
                    block = self.msrlt.lookup_logical((BlockKind.GLOBAL, 0, 0))
                super().save_variable(block)

        proc = Process(_PROG, DEC5000)
        proc.start()
        proc.migration_pending = True
        assert proc.run().status == "poll"
        monkeypatch.setattr(engine_module, "Collector", Misrouting)
        forged, _ = collect_state(proc)
        with pytest.raises(RestoreError, match="arrived where .* was expected"):
            _try_restore(forged)


# -- streamed chunk-frame corruption -----------------------------------------

_CHUNK = 97  # deliberately odd so records straddle chunk boundaries


def _frames() -> list[bytes]:
    """The payload as a pristine framed chunk stream (incl. terminator)."""
    chunks = [_PAYLOAD[i : i + _CHUNK] for i in range(0, len(_PAYLOAD), _CHUNK)]
    frames = [encode_chunk(seq, c) for seq, c in enumerate(chunks)]
    frames.append(encode_end_of_stream(len(chunks)))
    return frames


def _try_stream_restore(frames):
    """Decode frames exactly the way a channel receiver does, feeding the
    surviving payloads into an incremental restore."""
    decoder = ChunkDecoder()

    def payloads():
        for frame in frames:
            chunk = decoder.decode(frame)
            if chunk is None:
                return
            yield chunk

    dest = Process(_PROG, SPARC20)
    restore_state_stream(_PROG, payloads(), dest)
    return dest


class TestStreamCorruption:
    """Mid-stream damage must surface as the typed wire-frame errors —
    the CRC/seq framing catches what a monolithic receiver cannot."""

    def test_pristine_stream_still_works(self):
        dest = _try_stream_restore(_frames())
        dest.run()
        assert dest.stdout == "15 7.5"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_frame_bit_flip_rejected_typed(self, data):
        """Any single-bit flip anywhere in any frame is caught by the
        framing layer itself (magic, seq, length, or CRC check)."""
        frames = _frames()
        idx = data.draw(st.integers(min_value=0, max_value=len(frames) - 1))
        frame = bytearray(frames[idx])
        pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        frame[pos] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        frames[idx] = bytes(frame)
        with pytest.raises(WireFrameError):
            _try_stream_restore(frames)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_frame_truncation_rejected(self, data):
        """A frame cut short mid-wire (crashed sender) fails typed."""
        frames = _frames()
        idx = data.draw(st.integers(min_value=0, max_value=len(frames) - 2))
        cut = data.draw(st.integers(min_value=0, max_value=len(frames[idx]) - 1))
        truncated = frames[:idx] + [frames[idx][:cut]]
        with pytest.raises((WireFrameError, EOFError, MigrationError)):
            _try_stream_restore(truncated)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_frame_reordering_rejected(self, data):
        frames = _frames()
        i = data.draw(st.integers(min_value=0, max_value=len(frames) - 2))
        j = data.draw(
            st.integers(min_value=0, max_value=len(frames) - 2).filter(
                lambda x: x != i
            )
        )
        frames[i], frames[j] = frames[j], frames[i]
        with pytest.raises(WireFrameError):
            _try_stream_restore(frames)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_frame_duplication_rejected(self, seed):
        frames = _frames()
        idx = seed % (len(frames) - 1)
        frames.insert(idx, frames[idx])
        with pytest.raises(WireFrameError):
            _try_stream_restore(frames)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_frame_drop_rejected(self, seed):
        frames = _frames()
        del frames[seed % (len(frames) - 1)]
        with pytest.raises((WireFrameError, EOFError, MigrationError)):
            _try_stream_restore(frames)

    def test_missing_terminator_is_truncation(self):
        """A stream that just stops (no end-of-stream frame) restores
        everything — the *transport* is what notices the missing
        terminator; the payload itself is complete and consistent."""
        dest = _try_stream_restore(_frames()[:-1])
        dest.run()
        assert dest.stdout == "15 7.5"


# -- hostile records inside intact frames ---------------------------------------

#: a ring of six nodes reached through ``ring``: the walk meets nested
#: BLOCK records, REFs through a non-tail cell (``peer``), and ends in a
#: REF back to the first node it wrote
RING_PROGRAM = """
struct link { int v; struct link *peer; struct link *next; };
struct link *ring;
int main() {
    int i; int s;
    struct link *e; struct link *first;
    first = NULL;
    for (i = 0; i < 6; i++) {
        e = (struct link *) malloc(sizeof(struct link));
        e->v = i; e->peer = first; e->next = ring; ring = e;
        if (first == NULL) first = e;
    }
    first->next = ring;
    migrate_here();
    s = 0; e = ring;
    for (i = 0; i < 6; i++) { s += e->v; e = e->next; }
    printf("%d", s);
    return 0;
}
"""

_RING = compile_program(RING_PROGRAM, poll_strategy="user")


def _ring_stopped() -> Process:
    proc = Process(_RING, DEC5000)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    return proc


_RING_PAYLOAD = bytes(collect_state(_ring_stopped())[0])
_LINK_ID = next(
    _ring_stopped().ti.info_for(b.elem_type).type_id
    for b in _ring_stopped().msrlt.heap_blocks()
)
#: a node's BLOCK header — lead, i16 step to its serial; every node is
#: reached through a ``struct link *``, so its type is implied — is 3
#: bytes, a REF to one — lead, serial, ordinal — 9.  The walk meets the
#: serials 5, 0, 4, 3, 2, 1: the first four spell theirs out
#: (``(last, stride)`` goes (5, 6), (0, -5), (4, 4), (3, -1)), and 2 and
#: 1 continue the stride -1, so their headers are the lead alone
_HEADER, _REF = 3, 9
#: the serial of the heap BLOCK before each one whose serial travels
_LAST = {5: -1, 0: 5, 4: 0, 3: 4}


def _node(serial: int) -> int:
    """Payload offset of the BLOCK record of the node with *serial*, one
    whose serial travels."""
    header = block_header((BlockKind.HEAP, serial, 0), last=_LAST[serial])
    assert len(header) == _HEADER
    at = _RING_PAYLOAD.find(header)
    assert at >= 0 and _RING_PAYLOAD.count(header) == 1
    return at


def _ref(serial: int) -> int:
    """Payload offset of the first REF record to the node with *serial*."""
    record = ref_record((BlockKind.HEAP, serial, 0))
    assert len(record) == _REF
    at = _RING_PAYLOAD.find(record)
    assert at >= 0
    return at


def _splice(offset: int, length: int, data: bytes):
    """Replace *length* bytes at *offset* by *data* (of any length: a
    field a record does not carry has to be put in, lead bit and all)."""

    def rewrite(payload: bytearray) -> None:
        payload[offset : offset + length] = data

    return rewrite


def _header(serial: int, **fields):
    """Give the node with *serial* another BLOCK header."""
    logical = fields.pop("logical", (BlockKind.HEAP, serial, 0))
    fields.setdefault("last", _LAST[serial])
    return _splice(_node(serial), _HEADER, block_header(logical, **fields))


def _both(*rewrites):
    """*rewrites* in turn (each spliced at an offset of the untouched
    payload: the later offset goes first)."""

    def rewrite(payload: bytearray) -> None:
        for each in rewrites:
            each(payload)

    return rewrite


def _put_u32(offset: int, value: int):
    return _splice(offset, 4, value.to_bytes(4, "big"))


def _put_i16(offset: int, value: int):
    return _splice(offset, 2, value.to_bytes(2, "big", signed=True))


def _put_u8(offset: int, value: int):
    return _splice(offset, 1, bytes([value]))


def _cut_at(offset: int):
    def rewrite(payload: bytearray) -> None:
        del payload[offset:]

    return rewrite


_NODE_LEAD = _RING_PAYLOAD[_node(4)]  # BLOCK | HEAP | SERIAL
_REF_LEAD = _RING_PAYLOAD[_ref(0)]  # REF | HEAP
#: the ``ring`` global's root record — BLOCK | GLOBAL, its index — and
#: behind it the record of its pointer's target, node 5
_RING_ROOT = _node(5) - 5
assert _RING_PAYLOAD[_RING_ROOT : _node(5)] == block_header((BlockKind.GLOBAL, 0, 0))
#: node 0's ``peer``, right after its header and its int
_A_NULL = _node(0) + _HEADER + 4
assert _RING_PAYLOAD[_A_NULL] == 0

#: name -> (payload rewrite, what the restorer must say).  Node 5 is the
#: first one written (``ring`` points at it), node 0 — the target of
#: every ``peer`` — is nested in its ``peer``, node 4 in its tail.
HOSTILE = {
    "count-zero": (_header(5, count=0), "no block is empty"),
    "count-huge": (_header(5, count=2**32 - 1), "payload ends before"),
    "count-unbacked": (_header(4, count=100_000), "payload ends before"),
    "unknown-type": (_header(5, type_id=0xFFFF), "unknown type id"),
    "type-spelled-out": (_header(5, type_id=_LINK_ID), "spells out type id"),
    "block-ordinal-outside": (_header(4, ordinal=99), "ordinal 99 is outside"),
    "ref-ordinal-outside": (_put_u32(_ref(0) + 5, 99), "ordinal 99 is outside"),
    "second-block-for-a-mapped-id": (
        _header(4, logical=(BlockKind.HEAP, 5, 0)), "second BLOCK record"
    ),
    "ref-to-unseen-block": (_put_u32(_ref(0) + 1, 999), "REF to unseen block"),
    "bad-tag-mid-unit": (_put_u8(_ref(0), 3), "bad record tag 3"),
    # past the wire floor (6 bytes), inside the REF after the int
    "eof-mid-unit": (_cut_at(_node(4) + _HEADER + 8), "underrun"),
    # -- encodings that are not canonical, leads that are not defined
    "count-spelled-one": (
        _splice(_node(5), _HEADER,
                spelled_out(block_header((BlockKind.HEAP, 5, 0)), 0x20, 1)),
        "spells out count 1",
    ),
    "ordinal-spelled-zero": (
        _splice(_node(4), _HEADER,
                spelled_out(block_header((BlockKind.HEAP, 4, 0), last=0), 0x40, 0)),
        "spells out ordinal 0",
    ),
    "tag-three-on-a-block": (_put_u8(_node(4), _NODE_LEAD | 3), "bad record tag 3"),
    "kind-three": (_put_u8(_ref(0), _REF_LEAD | 3 << 2), "unknown block kind 3"),
    "block-bits-on-a-ref": (_put_u8(_ref(0), _REF_LEAD | 0x20), "BLOCK bits on a REF"),
    "bit-seven": (_put_u8(_ref(0), _REF_LEAD | 0x80), "BLOCK bits on a REF"),
    # bit 4, the retired FLAT flag, says a heap serial follows: a heap
    # BLOCK's alone
    "bit-four-on-a-ref": (_put_u8(_ref(0), _REF_LEAD | 0x10), "BLOCK bits on a REF"),
    "wrong-flat-flag": (
        _put_u8(_RING_ROOT, 0x12), "spells out a heap serial on a non-heap BLOCK"
    ),
    # node 0's step made 6, the stride: serial 11 = 5 + 6, the one the
    # walk implies there
    "serial-spelled-out": (
        _put_i16(_node(0) + 1, 6), r"spells out serial 11, the serial its walk implies"
    ),
    # node 4's step made -10: 0 - 10
    "step-below-zero": (
        _put_i16(_node(4) + 1, -10), "steps -10 from serial 0 to -10, outside u32"
    ),
    # node 4's serial left out: 0 - 5
    "implied-serial-below-zero": (
        _header(4, last=None),
        "leaves out serial -5, which the walk implies, outside u32",
    ),
    # node 5's serial 2**32 - 1 (escaped), then node 0's left out:
    # 2**32 - 1 + 2**32
    "implied-serial-above-u32": (
        _both(_header(0, last=None), _header(5, logical=(BlockKind.HEAP, 2**32 - 1, 0))),
        "leaves out serial 8589934591, which the walk implies, outside u32",
    ),
    # -- the escape: step 0, then the u32 serial of a step wider than i16
    # node 5's serial 5 escaped, where its step 6 travels
    "escape-of-a-narrow-step": (
        _header(5, escape=True), r"escapes its serial at step 6, which fits an i16"
    ),
    # node 0's serial escaped as 5, the last serial: step 0
    "escape-at-step-zero": (
        _header(0, logical=(BlockKind.HEAP, 5, 0), escape=True),
        r"escapes its serial at step 0, which fits an i16",
    ),
    # node 5 escaped to 40 000 (stride 40 001), then node 0 to 80 001, the
    # serial that stride implies
    "escape-of-the-implied-serial": (
        _both(
            _header(0, logical=(BlockKind.HEAP, 80_001, 0), last=40_000),
            _header(5, logical=(BlockKind.HEAP, 40_000, 0)),
        ),
        r"escapes serial 80001, the serial its walk implies",
    ),
    # node 5 escaped to 40 000, the payload cut 2 bytes into the serial
    "escape-cut-in-its-serial": (
        _both(
            _cut_at(_node(5) + _HEADER),
            _splice(_node(5), _HEADER, block_header((BlockKind.HEAP, 40_000, 0))[:5]),
        ),
        "escapes its serial, and the payload ends 2 of 4 bytes into it",
    ),
    "null-with-a-kind": (_put_u8(_A_NULL, 2 << 2), "NULL is the single byte 0x00"),
    "bit-seven-on-a-null": (_put_u8(_A_NULL, 0x80), "NULL is the single byte 0x00"),
    "ref-to-a-dead-stack-slot": (
        _splice(_ref(0), _REF, ref_record((BlockKind.STACK, 7, 1))),
        r"REF to unseen block \(1, 7, 1\)",
    ),
}

#: the lies told in the header of the first record met (node 5's): they
#: are refused before anything is carved
_REFUSED_AT_ONCE = (
    "count-zero", "count-huge", "unknown-type", "type-spelled-out", "wrong-flat-flag",
    "count-spelled-one", "escape-of-a-narrow-step", "escape-cut-in-its-serial",
)


def _hostile_collector(rewrite):
    """A collector that lies: the finished payload passes through
    *rewrite* before the engine frames it, so envelope, CRCs and chunk
    framing are all intact around the forged records."""

    class Hostile(Collector):
        def save_tail(self):
            super().save_tail()
            rewrite(self.buf.storage)

    return Hostile


class TestHostileRecords:
    """A sender that frames correctly and lies in the records.  Each lie
    is one typed error from the restorer — a retryable ``RestoreError``
    once the engine has it — raised before anything is allocated for
    contents that cannot arrive; the waiting destination is never
    touched and the source runs on."""

    def test_the_forgeries_start_from_a_good_payload(self):
        dest = Process(_RING, SPARC20)
        restore_state(_RING, _RING_PAYLOAD, dest)
        assert_table_whole(dest)
        dest.run()
        assert dest.stdout == "15"

    @pytest.mark.parametrize(
        "chunk", [None, 1, 7, 64], ids=["mono", "chunks-1", "chunks-7", "chunks-64"]
    )
    @pytest.mark.parametrize("plans", [True, False], ids=["plans", "oracle"])
    @pytest.mark.parametrize("case", HOSTILE)
    def test_restorer_names_the_lie(self, case, plans, chunk):
        rewrite, says = HOSTILE[case]
        forged = bytearray(_RING_PAYLOAD)
        rewrite(forged)
        forged = bytes(forged)
        dest = Process(_RING, SPARC20)
        dest.ti.plans_enabled = plans
        try:
            with pytest.raises((RestoreError, EOFError), match=says):
                if chunk is None:
                    restore_state(_RING, forged, dest)
                else:
                    pieces = [forged[i : i + chunk] for i in range(0, len(forged), chunk)]
                    restore_state_stream(_RING, iter(pieces), dest)
        finally:
            dest.ti.plans_enabled = True
        # the walk unwound through its bulk registration: what it carved
        # before the lie is in the table, and nothing else
        assert_table_whole(dest)

    #: the 36 lead bytes the grammar defines, written down from it:
    #: NULL, a REF per kind, a BLOCK per kind and combination of its
    #: three bits (5 count, 6 ordinal, 7 type), and a heap BLOCK with
    #: bit 4 (serial) too
    DEFINED_LEADS = frozenset(
        {0}
        | {1 | kind << 2 for kind in range(3)}
        | {2 | kind << 2 | bits << 5 for kind in range(3) for bits in range(8)}
        | {2 | BlockKind.HEAP << 2 | 0x10 | bits << 5 for bits in range(8)}
    )

    def test_the_record_table_defines_the_grammar_and_nothing_else(self):
        for lead in range(256):
            assert (RECORDS[lead] is not None) == (lead in self.DEFINED_LEADS), hex(lead)
            assert (lead_fault(lead) is None) == (lead in self.DEFINED_LEADS), hex(lead)
        assert RECORDS[0].size == 1
        # lead + a [+ b on the stack] + ordinal | [+ type id] [+ count] [+ ordinal]
        assert [RECORDS[1 | kind << 2].size for kind in range(3)] == [9, 13, 9]
        # a BLOCK: lead [+ a, for a heap id only with bit 4 and as an
        # i16 step] [+ b on the stack] [+ type id] [+ count] [+ ordinal];
        # escaped, a bit 4 record's step is followed by a u32 serial
        ids = {BlockKind.GLOBAL: 4, BlockKind.STACK: 8, BlockKind.HEAP: 0}
        for kind, serial in [(kind, 0) for kind in ids] + [(BlockKind.HEAP, 0x10)]:
            for bits in range(8):
                lead = 2 | kind << 2 | serial | bits << 5
                size = 1 + ids[kind] + (2 if serial else 0)
                size += 4 * bin(bits & 3).count("1") + (2 if bits & 4 else 0)
                assert RECORDS[lead].size == size
                escaped = ESCAPED[lead]
                assert escaped.size == size + 4 if serial else escaped is None
        assert sum(shape is not None for shape in ESCAPED) == 8

    @pytest.mark.parametrize(
        "chunk", [None, 1, 7, 64], ids=["mono", "chunks-1", "chunks-7", "chunks-64"]
    )
    @pytest.mark.parametrize("plans", [True, False], ids=["plans", "oracle"])
    @pytest.mark.parametrize("at", [_node(4), _ref(0), _A_NULL], ids=["block", "ref", "null"])
    def test_every_byte_is_one_record_or_a_typed_refusal(self, at, plans, chunk):
        """All 256 values at a record position — a BLOCK at a chain tail,
        a REF inside a chain row, a NULL.  An undefined lead is refused in
        ``lead_fault``'s words; a defined one is read as the one record
        it opens (with the bytes behind it for fields, so most are then
        refused for what they claim); nothing else ever comes out.  That
        a defined lead is read is seen on the payload cut right behind
        the record's fields: the walk runs out of payload, or refuses
        what the fields claim, and never refuses a lead (in the whole
        payload a misread field can land the walk on a later byte that
        is no lead)."""
        faults = {lead_fault(lead) for lead in range(256)} - {None}
        for lead in range(256):
            forged = bytearray(_RING_PAYLOAD)
            forged[at] = lead
            forged = bytes(forged)
            refusal = self._refusal(forged, plans, chunk)
            if lead in self.DEFINED_LEADS:
                cut = forged[: at + RECORDS[lead].size]
                assert self._refusal(cut, plans, chunk) not in faults, hex(lead)
            else:
                assert refusal == lead_fault(lead), hex(lead)
            if lead == _RING_PAYLOAD[at]:
                assert refusal is None

    @staticmethod
    def _refusal(forged: bytes, plans: bool, chunk) -> str | None:
        """What the restorer says to *forged* (``None``: it restores),
        the table whole either way."""
        dest = Process(_RING, SPARC20)
        dest.ti.plans_enabled = plans
        try:
            if chunk is None:
                restore_state(_RING, forged, dest)
            else:
                pieces = [forged[i : i + chunk] for i in range(0, len(forged), chunk)]
                restore_state_stream(_RING, iter(pieces), dest)
        except (RestoreError, EOFError, MSRLTError) as exc:
            # (MSRLTError: a GLOBAL or STACK id the destination does
            # not have — a record the restorer did decode)
            return str(exc)
        finally:
            dest.ti.plans_enabled = True
            assert_table_whole(dest)
        return None

    @pytest.mark.parametrize("plans", [True, False], ids=["plans", "oracle"])
    def test_a_b_on_a_heap_id_has_no_place_in_the_grammar(self, plans):
        """Only a stack id ships a ``b``.  Four bytes put in after a heap
        id's ``a`` are read as the REF's ordinal and its own ordinal as
        the four records after it: the walk comes out four bytes early
        and what is left is not a payload — damage, of the family the
        engine retries, with the table whole."""
        forged = bytearray(_RING_PAYLOAD)
        _splice(_ref(0) + 5, 0, bytes(4))(forged)
        dest = Process(_RING, SPARC20)
        dest.ti.plans_enabled = plans
        try:
            with pytest.raises(DAMAGE_ERRORS):
                restore_state(_RING, bytes(forged), dest)
        finally:
            dest.ti.plans_enabled = True
        assert_table_whole(dest)

    # (the whole payload is one chunk at the default chunk size, so the
    # collector's rewrite sees all of it before the first frame leaves)
    @pytest.mark.parametrize("mode", [{}, {"streaming": True}], ids=["mono", "stream"])
    @pytest.mark.parametrize("case", HOSTILE)
    def test_migration_fails_typed_and_bounded(self, case, mode, monkeypatch):
        rewrite, _says = HOSTILE[case]
        monkeypatch.setattr(engine_module, "Collector", _hostile_collector(rewrite))
        allocated = []
        heap_carve = Memory.heap_carve

        def counting(memory, size, n=1):
            allocated.append(size * n)
            return heap_carve(memory, size, n)

        proc = _ring_stopped()
        waiting = Process(_RING, SPARC20, name="the-waiter")
        waiting.load()
        # counted from here: the source's own mallocs are not the restorer's
        monkeypatch.setattr(Memory, "heap_carve", counting)
        with pytest.raises(MigrationAbortedError) as excinfo:
            MigrationEngine().migrate(
                proc, SPARC20, waiting=waiting,
                max_attempts=2, **mode,
            )
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, engine_module.RestoreError)
        # both restore attempts together asked the heap for less than one
        # payload
        assert sum(allocated) <= len(_RING_PAYLOAD)
        # (and it was asked: only a lie in the first record's header is
        # refused before any block is carved)
        assert allocated or case in _REFUSED_AT_ONCE
        # never a partially adopted destination
        assert not waiting.frames and not waiting.msrlt.heap_blocks()
        # the source is still at its poll-point, and runs on
        proc.migration_pending = False
        assert proc.run_to_completion() == 0
        assert proc.stdout == "15"

    @pytest.mark.parametrize("mode", [{}, {"streaming": True}], ids=["mono", "stream"])
    def test_a_peer_of_another_format_version_is_refused_typed(self, mode, monkeypatch):
        """There is one record format per build.  A payload that says
        version 1, 3 (every BLOCK record carried its type), 4 (every
        heap BLOCK record carried its serial) or 5 (a heap serial that
        travelled was a u32, not a step) is refused by the header
        reader in one line, and that refusal is damage like any other: a
        typed ``RestoreError`` out of ``migrate()``, the waiting
        destination untouched, the source running on to the unmigrated
        output."""
        for version in (1, 3, 4, 5):
            monkeypatch.setattr(
                engine_module, "Collector", _hostile_collector(_put_u8(4, version))
            )
            proc = _ring_stopped()
            waiting = Process(_RING, SPARC20, name="the-waiter")
            waiting.load()
            with pytest.raises(MigrationAbortedError) as excinfo:
                MigrationEngine().migrate(
                    proc, SPARC20, waiting=waiting,
                    max_attempts=2, **mode,
                )
            error = excinfo.value.last_error
            assert isinstance(error, engine_module.RestoreError)
            assert f"unsupported payload version {version}" in str(error)
            assert "\n" not in str(error)
            assert not waiting.frames and not waiting.msrlt.heap_blocks()
            proc.migration_pending = False
            assert proc.run_to_completion() == 0
            assert proc.stdout == "15"


# -- wide steps: a heap serial whose step from the last does not fit an i16 -----

#: one node, 33 000 allocations freed at once, the node its ``next``
#: holds, 34 000 more, then an array of three: the walk steps from serial
#: 0 to 33 001 (a node's header) and on to 67 002 (an array's, which
#: spells out its count)
WIDE_STEP_PROGRAM = """
struct node { int v; struct node *next; };
struct node *head;
int *vals;
int main() {
    int i;
    head = (struct node *) malloc(sizeof(struct node));
    head->v = 1;
    for (i = 0; i < %d; i++) free(malloc(8));
    head->next = (struct node *) malloc(sizeof(struct node));
    head->next->v = 2;
    for (i = 0; i < %d; i++) free(malloc(8));
    vals = (int *) malloc(3 * sizeof(int));
    vals[2] = 4;
    migrate_here();
    printf("%%d", head->v + head->next->v + vals[2]);
    return 0;
}
"""


def _wide_ring() -> bytes:
    """The ring payload with node 0 renumbered 40 005, 40 000 past node
    5, the first heap serial: node 0's step and node 4's behind it (-40
    001) are wider than an i16, so both escape, and every REF to node 0
    names its new serial."""
    forged = bytearray(_RING_PAYLOAD)
    far = (BlockKind.HEAP, 40_005, 0)
    _header(4, last=40_005)(forged)
    _header(0, logical=far)(forged)
    old, new = ref_record((BlockKind.HEAP, 0, 0)), ref_record(far)
    assert forged.count(old) == 5  # four peers, and node 1's next
    return bytes(forged.replace(old, new))


class TestWideSteps:
    """The escape on the wire: step 0, then the u32 serial.  What an
    escaped record restores re-collects to itself, like every record."""

    @pytest.mark.parametrize("plans", [True, False], ids=["plans", "oracle"])
    def test_a_hand_built_escape_restores_and_recollects_to_itself(self, plans):
        forged = _wide_ring()
        assert len(forged) == len(_RING_PAYLOAD) + 2 * 4
        assert forged.count(block_header((BlockKind.HEAP, 40_005, 0), last=5)) == 1
        dest = Process(_RING, SPARC20)
        with plans_off(dest) if not plans else nullcontext():
            restore_state(_RING, forged, dest)
            assert collect_state(dest)[0] == forged
        assert_table_whole(dest)
        assert dest.msrlt.has_logical((BlockKind.HEAP, 40_005, 0))
        dest.run()
        assert dest.stdout == "15"

    def test_a_real_walk_that_steps_past_i16(self):
        """ALPHA (LE64) to SPARC20 (BE32) and back: plans on and off ship
        the same bytes, each escape costs its 1 + 2 + 4 bytes of lead,
        step and serial — 4 more than the step a narrower gap takes —
        and the state that comes back re-collects to the payload that
        left."""
        proc = stopped_at(WIDE_STEP_PROGRAM % (33_000, 34_000), 1, ALPHA)
        prog = proc.program
        payload, info = collect_state(proc)
        with plans_off(proc):
            assert collect_state(proc)[0] == payload
        assert info.stats.wire_bytes == len(payload)
        node = block_header((BlockKind.HEAP, 33_001, 0), last=0)
        assert node == b"\x1a\x00\x00" + (33_001).to_bytes(4, "big")
        array = block_header((BlockKind.HEAP, 67_002, 0), count=3, last=33_001)
        assert array == b"\x3a\x00\x00" + (67_002).to_bytes(4, "big") + (3).to_bytes(4, "big")
        assert payload.count(node) == payload.count(array) == 1
        narrow, _ = collect_state(stopped_at(WIDE_STEP_PROGRAM % (100, 200), 1, ALPHA))
        stepped = (
            block_header((BlockKind.HEAP, 101, 0), last=0),
            block_header((BlockKind.HEAP, 302, 0), count=3, last=101),
        )
        assert [len(h) for h in stepped] == [3, 7]
        assert all(narrow.count(h) == 1 for h in stepped)
        assert len(payload) - len(narrow) == 2 * 4
        dest = Process(prog, SPARC20)
        restore_state(prog, payload, dest)
        there, _ = collect_state(dest)
        with plans_off(dest):
            assert collect_state(dest)[0] == there
        assert there == payload
        back = Process(prog, ALPHA)
        restore_state(prog, there, back)
        assert collect_state(back)[0] == payload
        for arrived in (dest, back):
            arrived.run()
            assert arrived.stdout == "7"


# -- hostile lists and roots: what every payload must carry, and as what -------

#: two live locals and three globals, each holding a value no zero-filled
#: variable would: a payload that leaves one out, or hands one contents
#: of another type of the same size, must not resume
LEADS_PROGRAM = """
int *target;
double decoy;
int main() { migrate_here(); return 0; }
"""
_LEADS = compile_program(LEADS_PROGRAM, poll_strategy="user")
_LEADS_PAYLOAD = bytes(collect_state(stopped_at(LEADS_PROGRAM, 1, DEC5000))[0])
#: ``target``'s record: BLOCK | global 0, then its contents, a NULL
_TARGET = block_header((BlockKind.GLOBAL, 0, 0)) + bytes(1)
assert _LEADS_PAYLOAD.count(_TARGET) == 1
_TYPE_IDS = {str(t): i for i, t in enumerate(_LEADS.types)}

#: how a heap BLOCK's serial travels -> (serial, its header's ``last``):
#: the first heap serial of a pass continues ``(-1, 1)`` at 0; 5 is a
#: step of 6; 40 000 a step wider than an i16
_SERIALS = {"implied": (0, None), "stepped": (5, -1), "escaped": (40_000, -1)}


def _heap_lead_payload(serial: str, typed: bool, counted: bool, ordinal: bool) -> bytes:
    """The leads program's payload with ``target`` aimed at a heap block
    whose BLOCK header carries the fields asked for: a ``double`` where
    ``int`` is implied (TYPE), three elements (COUNT), the pointer at
    element 1 (ORDINAL: one past the end of a single element)."""
    number, last = _SERIALS[serial]
    kind = "double" if typed else "int"
    count = 3 if counted else 1
    header = block_header(
        (BlockKind.HEAP, number, 0), last=last, count=count, ordinal=int(ordinal),
        type_id=_TYPE_IDS[kind] if typed else None,
    )
    contents = b"".join(
        struct.pack(">d", 1.5 * k) if typed else struct.pack(">i", -k) for k in range(count)
    )
    aimed = _TARGET[:-1] + header + contents
    return _LEADS_PAYLOAD.replace(_TARGET, aimed)


class TestEveryHeapLead:
    """Each of the 16 heap BLOCK leads — SERIAL x TYPE x COUNT x ORDINAL,
    a SERIAL lead with its step spelled out and escaped — is read by the
    restorer's one decode of the header and restores to a state that
    re-collects to the same bytes, plans on and off."""

    @pytest.mark.parametrize("plans", [True, False], ids=["plans", "oracle"])
    @pytest.mark.parametrize("ordinal", [False, True], ids=["", "ordinal"])
    @pytest.mark.parametrize("counted", [False, True], ids=["", "count"])
    @pytest.mark.parametrize("typed", [False, True], ids=["", "type"])
    @pytest.mark.parametrize("serial", list(_SERIALS))
    def test_the_lead_restores_to_itself(self, serial, typed, counted, ordinal, plans):
        forged = _heap_lead_payload(serial, typed, counted, ordinal)
        lead = forged[forged.index(_TARGET[:-1]) + len(_TARGET) - 1]
        assert lead & 0x0F == 0x0A  # BLOCK | heap
        assert lead >> 4 == (serial != "implied") | typed << 3 | counted << 1 | ordinal << 2
        dest = Process(_LEADS, SPARC20)
        with plans_off(dest) if not plans else nullcontext():
            restore_state(_LEADS, forged, dest)
            assert collect_state(dest)[0] == forged
        assert_table_whole(dest)
        assert dest.msrlt.has_logical((BlockKind.HEAP, _SERIALS[serial][0], 0))


ROOTS_PROGRAM = """
int g; int h; char c[4];
int main() {
    int a; int b;
    a = 7; b = 9; g = 258; h = 6; c[0] = 'x';
    migrate_here();
    printf("%d %d %d %d %c", a, b, g, h, c[0]);
    return 0;
}
"""

_ROOTS = compile_program(ROOTS_PROGRAM, poll_strategy="user")


def _roots_stopped() -> Process:
    proc = Process(_ROOTS, SPARC20)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    return proc


_ROOTS_PAYLOAD = bytes(collect_state(_roots_stopped())[0])


def _roots_layout():
    """Where the lists start — main's live count, the globals count —
    and the wire type id of ``char [4]`` (a root's own type travels
    only in a forgery)."""
    buf = ReadBuffer(_ROOTS_PAYLOAD)
    read_header(buf)
    proc = _roots_stopped()
    chars = proc.msrlt.lookup_logical((BlockKind.GLOBAL, 2, 0)).elem_type
    return buf.position, proc.ti.info_for(chars).type_id


_LIVE_AT, _CHARS_ID = _roots_layout()


def _root_entry(logical, type_id=None) -> bytes:
    """A root list's entry for an ``int`` variable up to its value: the
    index (u16 for a local, u32 for a global), then its record's header
    (a root's declared type is implied: spelled out only as *type_id*)."""
    kind, a, b = logical
    index = struct.pack(">H", b) if kind == BlockKind.STACK else struct.pack(">I", a)
    return index + block_header(logical, type_id)


def _left_out(count_at: int, width: int, logical):
    """Take *logical*'s entry (an ``int``: its value is 4 bytes) out of
    the list whose count is the *width*-byte field at *count_at*, and
    lower the count to match: a list that is well formed and short."""

    def rewrite(payload: bytearray) -> None:
        entry = _root_entry(logical)
        at = payload.find(entry)
        assert at > count_at and payload.count(entry) == 1
        del payload[at : at + len(entry) + 4]
        count = int.from_bytes(payload[count_at : count_at + width], "big")
        payload[count_at : count_at + width] = (count - 1).to_bytes(width, "big")

    return rewrite


def _retyped(logical, type_id: int):
    """Name another type in *logical*'s record (an ``int`` global)."""

    def rewrite(payload: bytearray) -> None:
        entry = _root_entry(logical)
        at = payload.find(entry)
        assert at >= 0 and payload.count(entry) == 1
        payload[at : at + len(entry)] = _root_entry(logical, type_id)

    return rewrite


def _globals_at() -> int:
    """Offset of the globals count: behind main's two live ``int``s."""
    return _LIVE_AT + 2 + 2 * (2 + 9 + 4)


def _in_place(payload: bytes, entry: bytes, forged: bytes) -> bytes:
    """*payload* with its one copy of *entry* replaced by *forged*."""
    at = payload.find(entry)
    assert at >= 0 and payload.count(entry) == 1
    return payload[:at] + forged + payload[at + len(entry) :]


def _root_ref_with_an_ordinal():
    """``gen_strings.c``: ``st_msg`` reaches ``__str_0`` before the
    globals list does, so the literal's root entry is a ``REF`` — here
    naming a cell one byte into its block."""
    program = compile_program(
        (Path(__file__).parent / "corpus" / "gen_strings.c").read_text(),
        poll_strategy="user",
    )
    proc = Process(program, SPARC20)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    i = [g.name for g in program.globals].index("__str_0")
    index, logical = struct.pack(">I", i), (BlockKind.GLOBAL, i, 0)
    forged = _in_place(
        bytes(collect_state(proc)[0]),
        index + ref_record(logical), index + ref_record(logical, ordinal=1),
    )
    return program, forged


def _root_block_with_an_ordinal():
    """The ``numbers`` global's root ``BLOCK`` (one ``double [8]``) with
    an ordinal spelled out behind its logical id."""
    logical = (BlockKind.GLOBAL, 1, 0)
    header = block_header(logical)
    index = struct.pack(">I", 1)
    forged = _in_place(_PAYLOAD, index + header, index + spelled_out(header, 0x40, 3))
    return _PROG, forged


#: name -> (forgery, what the restorer must say): a root is its whole
#: block, so a root record that names a cell inside it is refused (each
#: restored and ran on as if pristine before)
ROOT_ORDINALS = {
    "root-ref-ordinal-1": (
        _root_ref_with_an_ordinal,
        r"root record for \(0, 5, 0\) carries ordinal 1",
    ),
    "root-block-ordinal-3": (
        _root_block_with_an_ordinal,
        r"root record for \(0, 1, 0\) carries ordinal 3",
    ),
}


HOSTILE_ROOTS = {
    "local-left-out": (
        _left_out(_LIVE_AT, 2, (BlockKind.STACK, 0, 1)),
        r"payload lists 1 live variables for main\(\) \(frame 0\).* with 2: a, b",
    ),
    "global-left-out": (
        _left_out(_globals_at(), 4, (BlockKind.GLOBAL, 1, 0)),
        f"payload lists {len(_ROOTS.globals) - 1} globals where the program has "
        f"{len(_ROOTS.globals)}: g, h, c",
    ),
    "global-of-another-type": (
        _retyped((BlockKind.GLOBAL, 0, 0), _CHARS_ID),
        r"holds 1 x char \[4\], but the destination block is 1 x int",
    ),
}


class TestHostileRoots:
    """A payload that frames and spells every record correctly, and lies
    about the roots: leaves out a live local or a global (it would resume
    holding zeros), or gives a global the contents of another type of the
    same size.  Each is a typed refusal naming what is wrong."""

    def test_the_forgeries_start_from_a_good_payload(self):
        n_globals = _ROOTS_PAYLOAD[_globals_at() : _globals_at() + 4]
        assert int.from_bytes(n_globals, "big") == len(_ROOTS.globals)
        dest = Process(_ROOTS, X86)
        restore_state(_ROOTS, _ROOTS_PAYLOAD, dest)
        dest.run()
        assert dest.stdout == "7 9 258 6 x"

    @pytest.mark.parametrize("chunk", [None, 1, 7], ids=["mono", "chunks-1", "chunks-7"])
    @pytest.mark.parametrize("case", HOSTILE_ROOTS)
    def test_restorer_names_the_lie(self, case, chunk):
        rewrite, says = HOSTILE_ROOTS[case]
        forged = bytearray(_ROOTS_PAYLOAD)
        rewrite(forged)
        forged = bytes(forged)
        dest = Process(_ROOTS, X86)
        with pytest.raises(RestoreError, match=says):
            if chunk is None:
                restore_state(_ROOTS, forged, dest)
            else:
                pieces = [forged[i : i + chunk] for i in range(0, len(forged), chunk)]
                restore_state_stream(_ROOTS, iter(pieces), dest)
        assert_table_whole(dest)

    @pytest.mark.parametrize("chunk", [None, 1, 7], ids=["mono", "chunks-1", "chunks-7"])
    @pytest.mark.parametrize("case", ROOT_ORDINALS)
    def test_a_root_names_no_cell(self, case, chunk):
        forge, says = ROOT_ORDINALS[case]
        program, forged = forge()
        dest = Process(program, X86)
        with pytest.raises(RestoreError, match=says):
            if chunk is None:
                restore_state(program, forged, dest)
            else:
                pieces = [forged[i : i + chunk] for i in range(0, len(forged), chunk)]
                restore_state_stream(program, iter(pieces), dest)
        assert_table_whole(dest)
