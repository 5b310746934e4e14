"""Tests for the one wire envelope (frames → channels → engine): the
default transfer is the one-chunk stream, a streamed one cuts the same
payload into ``chunk_size`` frames and restores the same state across
heterogeneous pairs; the pipeline cost model, and the chunk APIs."""

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20
from repro.migration.engine import (
    DEFAULT_CHUNK_SIZE,
    MigrationEngine,
    MigrationError,
    collect_state,
    collect_state_chunks,
    restore_state,
    restore_state_stream,
)
from repro.migration.stats import pipelined_response_time
from repro.migration.transport import (
    Channel,
    ETHERNET_10M,
    FaultPlan,
    FaultyChannel,
    LOOPBACK,
    Link,
    SocketChannel,
)
from repro.msr.wire import (
    CHUNK_HEADER_SIZE,
    ChunkDecoder,
    FrameOrderError,
    decode_chunk,
    encode_chunk,
    encode_end_of_stream,
)
from tests.conftest import FrameCodecCases, tap_frames
from repro.vm.process import Process
from repro.vm.program import compile_program

PROGRAM = """
struct node { double w; struct node *next; };
struct node *ring;
double table[300];
int total;
int main() {
    int i;
    for (i = 0; i < 40; i++) {
        struct node *e = (struct node *) malloc(sizeof(struct node));
        e->w = i * 0.5; e->next = ring; ring = e;
        table[i] = i * 1.25;
    }
    migrate_here();
    { struct node *p; double s = 0.0;
      for (p = ring; p != NULL; p = p->next) s += p->w;
      for (i = 0; i < 40; i++) s += table[i];
      total = (int) s;
      printf("%d", total); }
    return 0;
}
"""


@pytest.fixture(scope="module")
def prog():
    return compile_program(PROGRAM, poll_strategy="user")


@pytest.fixture(scope="module")
def expected(prog):
    p = Process(prog, DEC5000)
    p.run_to_completion()
    return p.stdout


def stopped(prog, arch=DEC5000):
    proc = Process(prog, arch)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    return proc


class TestChunkedCollection:
    @pytest.mark.parametrize("chunk_size", [64, 257, 4096, DEFAULT_CHUNK_SIZE])
    def test_chunks_concatenate_to_monolithic_payload(self, prog, chunk_size):
        payload, _ = collect_state(stopped(prog))
        chunks = collect_state_chunks(stopped(prog), chunk_size)
        assert b"".join(chunks) == payload
        assert all(len(c) == chunk_size for c in chunks[:-1])

    def test_bad_chunk_size_rejected(self, prog):
        with pytest.raises(MigrationError, match="chunk_size"):
            list(collect_state_chunks(stopped(prog), 0))

    @pytest.mark.parametrize(
        "src_arch,dst_arch",
        [(DEC5000, SPARC20), (SPARC20, ALPHA)],  # endianness; word size
    )
    def test_streamed_restore_equals_monolithic(
        self, prog, expected, src_arch, dst_arch
    ):
        """Round-trip structural equality across heterogeneous pairs: the
        streamed restore must behave exactly like the monolithic one."""
        payload, _ = collect_state(stopped(prog, src_arch))

        mono_dest = Process(prog, dst_arch)
        mono_info = restore_state(prog, payload, mono_dest)

        chunks = [payload[i : i + 509] for i in range(0, len(payload), 509)]
        stream_dest = Process(prog, dst_arch)
        stream_info = restore_state_stream(prog, iter(chunks), stream_dest)

        assert stream_info.stats.n_blocks == mono_info.stats.n_blocks
        assert stream_info.stats.data_bytes == mono_info.stats.data_bytes
        assert stream_info.header.frames == mono_info.header.frames
        for dest in (mono_dest, stream_dest):
            dest.run()
            assert dest.stdout == expected

    def test_program_identity_enforced(self, prog):
        payload, _ = collect_state(stopped(prog))
        other = compile_program(PROGRAM, poll_strategy="user")
        with pytest.raises(MigrationError, match="different program"):
            restore_state(prog, payload, Process(other, SPARC20))


class TestPipelinedLinkModel:
    """The engine's modeled Tx for a chunk train: the frames go back to
    back, so the link latency is in it once."""

    def test_latency_amortized_not_summed(self, prog):
        link = Link("t", bandwidth_bps=1e6, latency_s=0.01)
        _, stats = MigrationEngine().migrate(
            stopped(prog), SPARC20, channel=Channel(link), streaming=True,
            chunk_size=256,
        )
        assert stats.n_chunks >= 10
        framed = stats.payload_bytes + (stats.n_chunks + 1) * CHUNK_HEADER_SIZE
        assert stats.tx_time == pytest.approx(link.latency_s + framed * 8 / 1e6)
        per_chunk_sum = stats.n_chunks * link.transfer_time(framed // stats.n_chunks)
        assert stats.tx_time < per_chunk_sum  # latency paid once, not per chunk
        # and the reported response is the closed form over the stage
        # totals, the link's latency in its fill term only
        assert stats.response_time == pipelined_response_time(
            stats.collect_time, stats.tx_time, stats.restore_time,
            stats.n_chunks, latency_s=link.latency_s,
        )

    def test_single_chunk_degenerates_to_transfer_time(self, prog):
        _, stats = MigrationEngine().migrate(
            stopped(prog), SPARC20, channel=Channel(ETHERNET_10M), streaming=True,
        )
        assert stats.n_chunks == 1
        assert stats.tx_time == pytest.approx(
            ETHERNET_10M.transfer_time(stats.payload_bytes + 2 * CHUNK_HEADER_SIZE)
        )

    def test_response_model_bounds(self):
        c, x, r, n = 0.3, 0.6, 0.2, 100
        t = pipelined_response_time(c, x, r, n, latency_s=0.001)
        assert t < c + x + r  # strictly better than serial
        assert t >= max(c, x, r)  # cannot beat the bottleneck stage
        # for many chunks the response approaches the bottleneck
        assert t == pytest.approx(max(c, x, r), rel=0.02)

    def test_response_model_serial_when_unchunked(self):
        assert pipelined_response_time(0.1, 0.2, 0.3, 1) == pytest.approx(0.6)


class TestChunkWire(FrameCodecCases):
    """The shared damage matrix, read by the codec's own decoder."""

    def read(self, frames):
        decoder = ChunkDecoder()
        chunks = [decoder.decode(frame) for frame in frames]
        assert decoder.finished
        return b"".join(chunk for chunk in chunks if chunk is not None)


class TestChannelChunkAPI:
    @pytest.mark.parametrize(
        "make",
        [lambda: Channel(LOOPBACK)],
        ids=["memory"],
    )
    def test_chunk_roundtrip_and_reuse(self, make):
        ch = make()
        for stream in ([b"alpha", b"beta", b"gamma"], [b"second-stream"]):
            for c in stream:
                ch.send_chunk(c)
            ch.end_stream()
            assert list(ch.iter_chunks()) == stream  # seq resets per stream
        assert ch.chunks_sent == ch.chunks_received == 4

    @pytest.mark.parametrize("kind", ["memory", "socket", "faulty"])
    def test_accepted_bytes_counts_messages_and_frames_once(self, kind):
        ch = {
            "memory": lambda: Channel(LOOPBACK),
            "socket": lambda: SocketChannel(link=LOOPBACK),
            "faulty": lambda: FaultyChannel(Channel(LOOPBACK), FaultPlan([])),
        }[kind]()
        ch.send(b"whole message")
        ch.send_chunk(b"x" * 100)
        ch.end_stream()
        ch.send_chunk(b"y" * 10)
        ch.end_stream()
        assert ch.accepted_bytes == len(b"whole message") + ch.framed_bytes_sent
        if kind == "socket":
            ch.close()

    def test_socket_chunk_roundtrip_threaded(self):
        import threading

        ch = SocketChannel(link=LOOPBACK)
        sent = [bytes([i]) * 5000 for i in range(20)]

        def produce():
            for c in sent:
                ch.send_chunk(c)
            ch.end_stream()

        t = threading.Thread(target=produce)
        t.start()
        got = list(ch.iter_chunks())
        t.join()
        ch.close()
        assert got == sent

    def test_out_of_order_frames_rejected(self):
        dec = ChunkDecoder()
        dec.decode(encode_chunk(0, b"first"))
        with pytest.raises(FrameOrderError, match="expected 1, got 2"):
            dec.decode(encode_chunk(2, b"skipped"))

    def test_frames_after_end_rejected(self):
        dec = ChunkDecoder()
        assert dec.decode(encode_end_of_stream(0)) is None
        with pytest.raises(FrameOrderError, match="after end-of-stream"):
            dec.decode(encode_chunk(1, b"late"))


CHANNEL_KINDS = {
    "memory": lambda: Channel(LOOPBACK),
    "socket": lambda: SocketChannel(link=LOOPBACK),
    "faulty": lambda: FaultyChannel(Channel(LOOPBACK), FaultPlan([])),
}


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
class TestOneEnvelope:
    """Every attempt, in every mode and on every channel, is chunk frames
    ``0 … n−1`` → terminator, and nothing else; the default mode is that
    with n = 1."""

    def migrate(self, prog, kind, **mode):
        channel = CHANNEL_KINDS[kind]()
        frames = tap_frames(channel)
        try:
            dest, stats = MigrationEngine().migrate(
                stopped(prog), SPARC20, channel=channel, **mode
            )
        finally:
            channel.close()
        dest.run()
        return frames, channel.accepted_bytes, stats, dest.stdout

    def test_default_mode_is_the_one_chunk_stream(
        self, prog, expected, kind
    ):
        payload, _ = collect_state(stopped(prog))
        frames, accepted, stats, stdout = self.migrate(prog, kind)
        assert stdout == expected
        assert [bytes(f[:4]) for f in frames] == [b"MCHK", b"MCHK"]
        seq, chunk = decode_chunk(frames[0])
        assert (seq, bytes(chunk)) == (0, payload)
        assert decode_chunk(frames[1]) == (1, b"")
        assert (stats.n_chunks, stats.streamed) == (1, False)
        assert accepted == sum(len(f) for f in frames)

        # the streamed attempt ships the same bytes plus one header per
        # extra chunk, and nothing else
        _, streamed, sstats, stdout = self.migrate(
            prog, kind, streaming=True, chunk_size=512
        )
        assert stdout == expected and sstats.n_chunks > 1
        assert accepted == streamed - CHUNK_HEADER_SIZE * (sstats.n_chunks - 1)

    def test_default_mode_compressed_ships_mchz(self, prog, expected, kind):
        frames, accepted, stats, stdout = self.migrate(
            prog, kind, compress=True
        )
        assert stdout == expected
        assert [bytes(f[:4]) for f in frames] == [b"MCHZ", b"MCHK"]
        payload, _ = collect_state(stopped(prog))
        assert bytes(decode_chunk(frames[0])[1]) == payload
        assert stats.compressed and stats.n_chunks == 1
        assert stats.compressed_bytes == len(frames[0]) - CHUNK_HEADER_SIZE
        assert stats.compressed_bytes < stats.payload_bytes * 0.9
        assert stats.codec_time > 0


class TestStreamingMigration:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Channel(ETHERNET_10M),
            lambda: SocketChannel(link=ETHERNET_10M),
        ],
        ids=["memory", "socket"],
    )
    def test_streamed_migration_matches_baseline(
        self, prog, expected, make
    ):
        proc = stopped(prog)
        channel = make()
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True, chunk_size=512
        )
        dest.run()
        if hasattr(channel, "close"):
            channel.close()
        assert dest.stdout == expected
        assert proc.exited and not proc.frames
        assert stats.streamed
        assert stats.n_chunks >= 2
        assert stats.pipeline_time <= stats.migration_time
        assert stats.response_time == stats.pipeline_time
        assert 0.0 <= stats.overlap_ratio < 1.0
        assert stats.payload_bytes > 0

    def test_monolithic_remains_default_and_identical(self, prog):
        """The default schedule is still the paper's serial one, and the
        bytes it ships are still ``collect_state``'s — as the one chunk
        of the one envelope, not as a bare message."""
        payload, _ = collect_state(stopped(prog))
        channel = Channel(LOOPBACK)
        frames = tap_frames(channel)
        dest, stats = MigrationEngine().migrate(stopped(prog), SPARC20, channel=channel)
        assert not stats.streamed and stats.n_chunks == 1
        assert stats.response_time == stats.migration_time
        assert [bytes(f[:4]) for f in frames] == [b"MCHK", b"MCHK"]
        assert bytes(decode_chunk(frames[0])[1]) == payload
        assert channel.messages_sent == 2  # nothing travels outside a frame

    def test_streamed_stats_consistent_with_monolithic(self, prog):
        payload, _ = collect_state(stopped(prog))
        proc = stopped(prog)
        _, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=Channel(ETHERNET_10M), streaming=True,
            chunk_size=512,
        )
        assert stats.payload_bytes == len(payload)
        import math

        assert stats.n_chunks == math.ceil(len(payload) / 512)
