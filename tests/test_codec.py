"""Plan byte identity on more source architectures, and adaptive wire
compression.

Two invariants:

- the compiled plans are a pure speed-up: collection with the plans on
  produces **byte-identical** payloads to the per-cell oracle, on every
  workload and architecture (the check itself is
  ``conftest.assert_plans_invisible``; this module only adds
  source architectures to its matrix);
- compression is an opt-in wrapper: with ``compress=False`` the wire
  bytes are unchanged from PR 2, and with it on, payloads round-trip
  byte-identically through deflate + the adaptive keep-raw rule.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ALPHA, DEC5000, SPARC20, X86
from repro.migration.engine import MigrationEngine, collect_state
from repro.migration.transport import Channel, SocketChannel, ETHERNET_10M
from repro.msr.wire import (
    CHUNK_MAGIC_Z,
    FrameCorruptError,
    MIN_COMPRESSION_GAIN,
    compress_payload,
    decode_chunk,
    encode_chunk,
    expand_payload,
)
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import structgrid_source
from tests.conftest import PLAN_WORKLOADS as WORKLOADS
from tests.conftest import assert_plans_invisible, stopped_at

CODEC_WORKLOADS = ["hashtable", "linpack", "structgrid", "test_pointer"]


class TestCodecByteIdentity:
    """Compiled plans must never change a single wire byte."""

    @pytest.mark.parametrize("workload", CODEC_WORKLOADS)
    @pytest.mark.parametrize("arch", [DEC5000, ALPHA, X86], ids=lambda a: a.name)
    def test_collect_identical_with_and_without_codecs(self, workload, arch):
        """Same-architecture control: no representation changes."""
        assert_plans_invisible(*WORKLOADS[workload], arch, arch)

    @pytest.mark.parametrize("workload", CODEC_WORKLOADS)
    def test_percell_payload_restores_through_codec_restorer(self, workload):
        """The paper's pair (§4.1): the oracle's payload restores through
        the compiled restore plans and vice versa."""
        assert_plans_invisible(*WORKLOADS[workload], DEC5000, SPARC20)

    def test_structgrid_actually_uses_codecs(self):
        proc = stopped_at(*WORKLOADS["structgrid"], DEC5000)
        _, info = collect_state(proc)
        assert info.stats.n_codec_blocks > 0


class TestChunkCompression:
    def test_raw_frame_bytes_unchanged_by_default(self):
        """PR 2 compatibility: no compress flag, no new bytes."""
        payload = bytes(range(200))
        frame = encode_chunk(3, payload)
        assert frame[:4] == b"MCHK"
        assert frame == encode_chunk(3, payload, compress=False)
        seq, out = decode_chunk(frame)
        assert (seq, out) == (3, payload)

    def test_compressible_payload_ships_compressed(self):
        payload = b"A" * 4096
        frame = encode_chunk(0, payload, compress=True)
        assert frame[:4] == b"MCHZ"
        assert len(frame) < len(payload)
        seq, out = decode_chunk(frame)
        assert (seq, out) == (0, payload)

    def test_incompressible_payload_ships_raw(self):
        import random

        payload = random.Random(5).randbytes(4096)
        frame = encode_chunk(0, payload, compress=True)
        assert frame[:4] == b"MCHK"
        assert decode_chunk(frame)[1] == payload

    def test_crc_covers_raw_payload(self):
        import struct as s

        payload = b"B" * 1024
        frame = encode_chunk(0, payload, compress=True)
        _, _, _, crc = s.unpack_from(">IIII", frame)
        assert crc == zlib.crc32(payload)

    def test_corrupt_compressed_body_is_typed(self):
        frame = bytearray(encode_chunk(0, b"C" * 1024, compress=True))
        frame[-1] ^= 0xFF
        with pytest.raises(FrameCorruptError):
            decode_chunk(bytes(frame))

    def test_compressed_end_of_stream_rejected(self):
        import struct as s

        frame = s.pack(">IIII", CHUNK_MAGIC_Z, 0, 0, 0)
        with pytest.raises(FrameCorruptError):
            decode_chunk(frame)

    @given(st.binary(min_size=1, max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_chunk_roundtrip_property(self, payload):
        for compress in (False, True):
            seq, out = decode_chunk(encode_chunk(7, payload, compress=compress))
            assert (seq, out) == (7, payload)

    @given(st.binary(min_size=0, max_size=8192))
    @settings(max_examples=60, deadline=None)
    def test_payload_envelope_roundtrip_property(self, payload):
        wire = compress_payload(payload)
        assert expand_payload(wire) == payload
        if wire is not payload:
            assert wire[:4] == b"MIGZ"
            assert len(wire) <= len(payload) * (1.0 - MIN_COMPRESSION_GAIN)

    def test_envelope_corruption_is_typed(self):
        wire = bytearray(compress_payload(b"D" * 4096))
        assert wire[:4] == b"MIGZ"
        wire[-1] ^= 0xFF
        with pytest.raises(FrameCorruptError):
            expand_payload(bytes(wire))


class TestCompressedMigration:
    @pytest.fixture(scope="class")
    def prog(self):
        return compile_program(structgrid_source(128, 48), poll_strategy="user")

    @pytest.fixture(scope="class")
    def baseline(self, prog):
        base = Process(prog, DEC5000)
        base.run_to_completion()
        return base

    def _stopped(self, prog):
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 30
        assert proc.run().status == "poll"
        return proc

    @pytest.mark.parametrize("streaming", [False, True])
    def test_compressed_migration_restores_identically(
        self, prog, baseline, streaming
    ):
        proc = self._stopped(prog)
        dest, stats = MigrationEngine().migrate(
            proc,
            SPARC20,
            channel=Channel(ETHERNET_10M),
            streaming=streaming,
            chunk_size=2048,
            compress=True,
        )
        dest.run()
        assert dest.stdout == baseline.stdout
        assert stats.compressed
        assert 0 < stats.compressed_bytes < stats.payload_bytes
        assert stats.compression_ratio > 1.0
        assert stats.codec_time >= 0.0

    def test_compressed_stream_over_real_socket(self, prog, baseline):
        proc = self._stopped(prog)
        channel = SocketChannel(ETHERNET_10M)
        try:
            dest, stats = MigrationEngine().migrate(
                proc,
                SPARC20,
                channel=channel,
                streaming=True,
                chunk_size=2048,
                compress=True,
            )
            dest.run()
        finally:
            channel.close()
        assert dest.stdout == baseline.stdout
        assert stats.compressed and stats.compression_ratio > 1.0

    def test_uncompressed_stats_defaults(self, prog, baseline):
        proc = self._stopped(prog)
        dest, stats = MigrationEngine().migrate(proc, SPARC20)
        dest.run()
        assert dest.stdout == baseline.stdout
        assert not stats.compressed
        assert stats.compressed_bytes == 0
        assert stats.compression_ratio == 1.0

    def test_uncompressed_stream_frames_stay_raw(self, prog):
        """Default streamed frames are raw 'MCHK' — never 'MCHZ' — and
        nothing else travels alongside them."""
        proc = self._stopped(prog)
        channel = Channel(ETHERNET_10M)
        sent = []
        original = channel.send

        def spy(payload):
            sent.append(bytes(payload))
            return original(payload)

        channel.send = spy
        MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True, chunk_size=2048
        )
        assert sent
        assert all(f[:4] == b"MCHK" for f in sent)
