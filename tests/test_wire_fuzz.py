"""Robustness: corrupted migration payloads must fail controlled.

A migration receiver faces untrusted bytes; random corruption must
surface as a typed error (wire/restore/memory/checkpoint error classes),
never as an unhandled crash, an infinite loop, or — worst — a silently
corrupted process that resumes with wrong data *and* no exception while
claiming success.  The property tests flip/truncate/duplicate bytes and
check the restorer either rejects the payload or produces a process
whose observable behaviour is checked.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DEC5000, SPARC20
from repro.migration import engine as engine_module
from repro.migration.engine import (
    DAMAGE_ERRORS,
    MigrationAbortedError,
    MigrationEngine,
    MigrationError,
    RetryPolicy,
    collect_state,
    restore_state,
    restore_state_stream,
)
from repro.msr.collect import Collector
from repro.msr.msrlt import BlockKind, MSRLTError
from repro.msr.restore import RestoreError
from repro.msr.wire import (
    BLOCK_RECORD,
    REF_RECORD,
    TAG_BLOCK,
    TAG_REF,
    ChunkDecoder,
    WireFrameError,
    encode_chunk,
    encode_end_of_stream,
)
from repro.vm.memory import Memory, MemoryFault
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import assert_table_whole

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


    def test_root_ref_must_name_the_expected_block(self):
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
        forged, _ = collect_state(proc, Misrouting)
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
#: byte offsets inside a BLOCK record (tag, kind, a, b, type, count, ordinal, flags)
_TYPE, _COUNT, _ORDINAL, _FLAGS = 10, 14, 18, 22


def _node(serial: int) -> int:
    """Payload offset of the BLOCK record of the node with *serial*."""
    header = BLOCK_RECORD.pack(
        TAG_BLOCK, BlockKind.HEAP, serial, 0, _LINK_ID, 1, 0, 0
    )
    at = _RING_PAYLOAD.find(header)
    assert at >= 0 and _RING_PAYLOAD.count(header) == 1
    return at


def _ref(serial: int) -> int:
    """Payload offset of the first REF record to the node with *serial*."""
    at = _RING_PAYLOAD.find(REF_RECORD.pack(TAG_REF, BlockKind.HEAP, serial, 0, 0))
    assert at >= 0
    return at


def _put_u32(offset: int, value: int):
    def rewrite(payload: bytearray) -> None:
        payload[offset : offset + 4] = value.to_bytes(4, "big")

    return rewrite


def _put_u8(offset: int, value: int):
    def rewrite(payload: bytearray) -> None:
        payload[offset] = value

    return rewrite


def _cut_at(offset: int):
    def rewrite(payload: bytearray) -> None:
        del payload[offset:]

    return rewrite


#: name -> (payload rewrite, what the restorer must say).  Node 5 is the
#: first one written (``ring`` points at it), node 4 the one nested in
#: its tail, node 0 the target of every ``peer``.
HOSTILE = {
    "count-zero": (_put_u32(_node(5) + _COUNT, 0), "no block is empty"),
    "count-huge": (_put_u32(_node(5) + _COUNT, 2**32 - 1), "payload ends before"),
    "count-unbacked": (_put_u32(_node(4) + _COUNT, 100_000), "payload ends before"),
    "unknown-type": (_put_u32(_node(5) + _TYPE, 0x00FFFFFF), "unknown type id"),
    "wrong-flat-flag": (_put_u8(_node(5) + _FLAGS, 1), "flat flag disagrees"),
    "block-ordinal-outside": (_put_u32(_node(4) + _ORDINAL, 99), "ordinal 99 is outside"),
    "ref-ordinal-outside": (_put_u32(_ref(0) + 10, 99), "ordinal 99 is outside"),
    "second-block-for-a-mapped-id": (_put_u32(_node(4) + 2, 5), "second BLOCK record"),
    "ref-to-unseen-block": (_put_u32(_ref(0) + 2, 999), "REF to unseen block"),
    "bad-tag-mid-unit": (_put_u8(_ref(0), 9), "bad record tag 9"),
    # past the wire floor (6 bytes), inside the REF after the int
    "eof-mid-unit": (_cut_at(_node(4) + BLOCK_RECORD.size + 8), "underrun"),
}


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

    @pytest.mark.parametrize("chunk", [None, 7, 64], ids=["mono", "chunks-7", "chunks-64"])
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
                retry=RetryPolicy(max_attempts=2, sleep=lambda _s: None), **mode,
            )
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, engine_module.RestoreError)
        # both attempts together asked the heap for less than one payload
        assert sum(allocated) <= len(_RING_PAYLOAD)
        # (and it was asked: only a lie in the first record's header is
        # refused before any block is carved)
        assert allocated or case in ("count-zero", "count-huge", "unknown-type")
        # never a partially adopted destination
        assert not waiting.frames and not waiting.msrlt.heap_blocks()
        # the source is still at its poll-point, and runs on
        proc.migration_pending = False
        assert proc.run_to_completion() == 0
        assert proc.stdout == "15"
