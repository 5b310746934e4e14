"""Tests for the in-memory and socket transport channels (paper layer 1:
"either TCP protocol, shared file systems, or remote file transfer")."""

import pytest

from repro.arch import DEC5000, SPARC20
from repro.migration.engine import MigrationEngine
from repro.migration.transport import (
    Channel,
    ChannelTimeoutError,
    ETHERNET_10M,
    SocketChannel,
)
from repro.msr.wire import CHUNK_HEADER_SIZE
from repro.vm.process import Process
from repro.vm.program import compile_program

PROGRAM = """
double series[64];
int main() {
    int i; double s = 0.0;
    for (i = 0; i < 64; i++) {
        series[i] = i * 0.25;
        migrate_here();
    }
    for (i = 0; i < 64; i++) s += series[i];
    printf("%.2f", s);
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


def stopped(prog, k=30):
    proc = Process(prog, DEC5000)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = k
    assert proc.run().status == "poll"
    return proc


class TestChannel:
    def test_migration_charges_the_data_frames(self, prog, expected):
        proc = stopped(prog)
        channel = Channel(ETHERNET_10M)
        dest, stats = MigrationEngine().migrate(proc, SPARC20, channel=channel)
        dest.run()
        assert dest.stdout == expected
        # the payload rides one chunk frame, closed by a terminator, and
        # Tx charges exactly those frames
        framed = stats.payload_bytes + 2 * CHUNK_HEADER_SIZE
        assert channel.framed_bytes_sent == channel.accepted_bytes == framed
        assert stats.tx_time == pytest.approx(ETHERNET_10M.transfer_time(framed))


class TestSocketChannel:
    def test_basic_roundtrip(self):
        ch = SocketChannel()
        ch.send(b"one")
        ch.send(b"two")
        assert ch.recv() == b"one"
        assert ch.recv() == b"two"
        ch.close()

    def test_large_payload_no_deadlock(self):
        """Payloads far beyond the kernel socket buffer must pass."""
        ch = SocketChannel()
        big = bytes(range(256)) * 20000  # 5 MB
        ch.send(big)
        assert ch.recv() == big
        ch.close()

    def test_empty_raises(self):
        ch = SocketChannel()
        with pytest.raises(ChannelTimeoutError, match="empty"):
            ch.recv()
        ch.close()

    def test_migration_over_socket(self, prog, expected):
        proc = stopped(prog)
        channel = SocketChannel(link=ETHERNET_10M)
        dest, stats = MigrationEngine().migrate(proc, SPARC20, channel=channel)
        dest.run()
        channel.close()
        assert dest.stdout == expected
        assert stats.payload_bytes > 0
