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
from repro.migration.engine import (
    MigrationError,
    collect_state,
    restore_state,
    restore_state_stream,
)
from repro.msr.collect import Collector
from repro.msr.msrlt import BlockKind, MSRLTError
from repro.msr.restore import RestoreError
from repro.msr.wire import (
    ChunkDecoder,
    WireFrameError,
    encode_chunk,
    encode_end_of_stream,
)
from repro.vm.memory import MemoryFault
from repro.vm.process import Process
from repro.vm.program import compile_program

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

#: every exception class a malformed payload may legitimately raise
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
        except CONTROLLED:
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
        with pytest.raises(CONTROLLED):
            _try_restore(_PAYLOAD[:cut])

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_appended_garbage_rejected(self, tail):
        with pytest.raises(CONTROLLED):
            _try_restore(_PAYLOAD + tail)

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_random_bytes_rejected(self, blob):
        with pytest.raises(CONTROLLED):
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
