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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DEC5000, SPARC20, X86
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
from tests.conftest import assert_table_whole, block_header, ref_record, spelled_out

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
    UnicodeDecodeError,
)


def _payload() -> bytes:
    proc = Process(_PROG, DEC5000)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    payload, _ = collect_state(proc)
    return payload


_PAYLOAD = _payload()


def _try_restore(data: bytes):
    dest = Process(_PROG, SPARC20)
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
        # the process must still run to completion or fail controlled
        try:
            dest.run(max_steps=200_000)
        except CONTROLLED:
            pass

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
#: a node's BLOCK header — lead, serial, u16 type id — is 7 bytes, a REF
#: to one — lead, serial, ordinal — 9
_HEADER, _REF = 7, 9


def _node(serial: int) -> int:
    """Payload offset of the BLOCK record of the node with *serial*."""
    header = block_header((BlockKind.HEAP, serial, 0), _LINK_ID)
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
    fields.setdefault("type_id", _LINK_ID)
    return _splice(_node(serial), _HEADER, block_header(logical, **fields))


def _put_u32(offset: int, value: int):
    return _splice(offset, 4, value.to_bytes(4, "big"))


def _put_u8(offset: int, value: int):
    return _splice(offset, 1, bytes([value]))


def _cut_at(offset: int):
    def rewrite(payload: bytearray) -> None:
        del payload[offset:]

    return rewrite


_NODE_LEAD = _RING_PAYLOAD[_node(4)]  # BLOCK | HEAP
_REF_LEAD = _RING_PAYLOAD[_ref(0)]  # REF | HEAP
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
    "wrong-flat-flag": (_header(5, flat=True), "flat flag disagrees"),
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
                spelled_out(block_header((BlockKind.HEAP, 5, 0), _LINK_ID), 0x20, 1)),
        "spells out count 1",
    ),
    "ordinal-spelled-zero": (
        _splice(_node(4), _HEADER,
                spelled_out(block_header((BlockKind.HEAP, 4, 0), _LINK_ID), 0x40, 0)),
        "spells out ordinal 0",
    ),
    "tag-three-on-a-block": (_put_u8(_node(4), _NODE_LEAD | 3), "bad record tag 3"),
    "kind-three": (_put_u8(_ref(0), _REF_LEAD | 3 << 2), "unknown block kind 3"),
    "block-bits-on-a-ref": (_put_u8(_ref(0), _REF_LEAD | 0x20), "BLOCK bits on a REF"),
    "bit-seven": (_put_u8(_node(4), _NODE_LEAD | 0x80), "reserved bit 7"),
    "null-with-a-kind": (_put_u8(_A_NULL, 2 << 2), "NULL is the single byte 0x00"),
    "ref-to-a-dead-stack-slot": (
        _splice(_ref(0), _REF, ref_record((BlockKind.STACK, 7, 1))),
        r"REF to unseen block \(1, 7, 1\)",
    ),
}

#: the lies told in the header of the first record met (node 5's): they
#: are refused before anything is carved
_REFUSED_AT_ONCE = (
    "count-zero", "count-huge", "unknown-type", "wrong-flat-flag", "count-spelled-one",
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

    #: the 28 lead bytes the grammar defines, written down from it:
    #: NULL, a REF per kind, a BLOCK per kind and combination of its
    #: three bits
    DEFINED_LEADS = frozenset(
        {0}
        | {1 | kind << 2 for kind in range(3)}
        | {2 | kind << 2 | bits << 4 for kind in range(3) for bits in range(8)}
    )

    def test_the_record_table_defines_the_grammar_and_nothing_else(self):
        for lead in range(256):
            assert (RECORDS[lead] is not None) == (lead in self.DEFINED_LEADS), hex(lead)
            assert (lead_fault(lead) is None) == (lead in self.DEFINED_LEADS), hex(lead)
        assert RECORDS[0].size == 1
        # lead + a [+ b on the stack] + ordinal | + type id [+ count] [+ ordinal]
        assert [RECORDS[1 | kind << 2].size for kind in range(3)] == [9, 13, 9]
        for kind in range(3):
            for bits in range(8):
                size = (11 if kind == BlockKind.STACK else 7) + 4 * bin(bits >> 1).count("1")
                assert RECORDS[2 | kind << 2 | bits << 4].size == size

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
        refused for what they claim); nothing else ever comes out."""
        faults = {lead_fault(lead) for lead in range(256)} - {None}
        for lead in range(256):
            forged = bytearray(_RING_PAYLOAD)
            forged[at] = lead
            forged = bytes(forged)
            dest = Process(_RING, SPARC20)
            dest.ti.plans_enabled = plans
            refusal = None
            try:
                if chunk is None:
                    restore_state(_RING, forged, dest)
                else:
                    pieces = [forged[i : i + chunk] for i in range(0, len(forged), chunk)]
                    restore_state_stream(_RING, iter(pieces), dest)
            except (RestoreError, EOFError, MSRLTError) as exc:
                # (MSRLTError: a GLOBAL or STACK id the destination does
                # not have — a record the restorer did decode)
                refusal = str(exc)
            finally:
                dest.ti.plans_enabled = True
            assert_table_whole(dest)
            if lead in self.DEFINED_LEADS:
                assert refusal not in faults, hex(lead)
            else:
                assert refusal == lead_fault(lead), hex(lead)
            if lead == _RING_PAYLOAD[at]:
                assert refusal is None

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

        monkeypatch.setattr(Memory, "heap_carve", counting)
        proc = _ring_stopped()
        waiting = Process(_RING, SPARC20, name="the-waiter")
        waiting.load()
        with pytest.raises(MigrationAbortedError) as excinfo:
            MigrationEngine().migrate(
                proc, SPARC20, waiting=waiting,
                max_attempts=2, **mode,
            )
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, engine_module.RestoreError)
        # both attempts together asked the heap for less than one payload
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
        version 1 is refused by the header reader, and that refusal is
        damage like any other: a typed ``RestoreError`` out of
        ``migrate()``, the waiting destination untouched, the source
        running on to the unmigrated output."""
        monkeypatch.setattr(engine_module, "Collector", _hostile_collector(_put_u8(4, 1)))
        proc = _ring_stopped()
        waiting = Process(_RING, SPARC20, name="the-waiter")
        waiting.load()
        with pytest.raises(MigrationAbortedError) as excinfo:
            MigrationEngine().migrate(
                proc, SPARC20, waiting=waiting,
                max_attempts=2, **mode,
            )
        assert isinstance(excinfo.value.last_error, engine_module.RestoreError)
        assert "unsupported payload version 1" in str(excinfo.value.last_error)
        assert not waiting.frames and not waiting.msrlt.heap_blocks()
        proc.migration_pending = False
        assert proc.run_to_completion() == 0
        assert proc.stdout == "15"


# -- hostile lists and roots: what every payload must carry, and as what -------

#: two live locals and three globals, each holding a value no zero-filled
#: variable would: a payload that leaves one out, or hands one contents
#: of another type of the same size, must not resume
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
    and the wire type ids of ``int`` and ``char [4]``."""
    buf = ReadBuffer(_ROOTS_PAYLOAD)
    read_header(buf)
    proc = _roots_stopped()
    type_of = {
        name: proc.ti.info_for(proc.msrlt.lookup_logical((BlockKind.GLOBAL, i, 0)).elem_type)
        for i, name in enumerate(("g", "h", "c"))
    }
    return buf.position, type_of["g"].type_id, type_of["c"].type_id


_LIVE_AT, _INT_ID, _CHARS_ID = _roots_layout()


def _root_entry(logical, type_id) -> bytes:
    """A root list's entry for an ``int`` variable up to its value: the
    index (u16 for a local, u32 for a global), then its record's header."""
    kind, a, b = logical
    index = struct.pack(">H", b) if kind == BlockKind.STACK else struct.pack(">I", a)
    return index + block_header(logical, type_id, flat=True)


def _left_out(count_at: int, width: int, logical):
    """Take *logical*'s entry (an ``int``: its value is 4 bytes) out of
    the list whose count is the *width*-byte field at *count_at*, and
    lower the count to match: a list that is well formed and short."""

    def rewrite(payload: bytearray) -> None:
        entry = _root_entry(logical, _INT_ID)
        at = payload.find(entry)
        assert at > count_at and payload.count(entry) == 1
        del payload[at : at + len(entry) + 4]
        count = int.from_bytes(payload[count_at : count_at + width], "big")
        payload[count_at : count_at + width] = (count - 1).to_bytes(width, "big")

    return rewrite


def _retyped(logical, type_id: int):
    """Name another type in *logical*'s record (an ``int`` global)."""

    def rewrite(payload: bytearray) -> None:
        entry = _root_entry(logical, _INT_ID)
        at = payload.find(entry)
        assert at >= 0 and payload.count(entry) == 1
        payload[at : at + len(entry)] = _root_entry(logical, type_id)

    return rewrite


def _globals_at() -> int:
    """Offset of the globals count: behind main's two live ``int``s."""
    return _LIVE_AT + 2 + 2 * (2 + 11 + 4)


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
    an ordinal spelled out behind its type id."""
    proc = Process(_PROG, DEC5000)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    logical = (BlockKind.GLOBAL, 1, 0)
    header = block_header(
        logical, proc.ti.info_for(proc.msrlt.lookup_logical(logical).elem_type).type_id,
        flat=True,
    )
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
        r"names 1 x char \[4\], but the destination block is 1 x int",
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
