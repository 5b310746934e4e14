"""Tests for the file and socket transport channels (paper layer 1:
"either TCP protocol, shared file systems, or remote file transfer")."""

import pytest

from repro.arch import DEC5000, SPARC20
from repro.migration.engine import MigrationEngine
from repro.migration.transport import (
    ChannelTimeoutError,
    ETHERNET_10M,
    FileChannel,
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


class TestFileChannel:
    def test_basic_roundtrip(self, tmp_path):
        ch = FileChannel(tmp_path / "spool.bin")
        ch.send(b"alpha")
        ch.send(b"beta")
        assert ch.recv() == b"alpha"
        assert ch.recv() == b"beta"
        with pytest.raises(ChannelTimeoutError):  # both records consumed
            ch.recv()

    def test_empty_raises(self, tmp_path):
        ch = FileChannel(tmp_path / "spool.bin")
        with pytest.raises(ChannelTimeoutError, match="empty"):
            ch.recv()

    def test_migration_over_shared_file(self, prog, expected, tmp_path):
        proc = stopped(prog)
        channel = FileChannel(tmp_path / "mig.bin", link=ETHERNET_10M)
        dest, stats = MigrationEngine().migrate(proc, SPARC20, channel=channel)
        dest.run()
        assert dest.stdout == expected
        # Tx charges the data frames: payload, chunk header, terminator
        assert stats.tx_time == pytest.approx(
            ETHERNET_10M.transfer_time(stats.payload_bytes + 2 * CHUNK_HEADER_SIZE)
        )
        # the payload genuinely hit the file system
        assert (tmp_path / "mig.bin").stat().st_size > stats.payload_bytes

    def test_bytes_survive_reopen(self, tmp_path):
        """The spool is durable: a second channel object can drain it."""
        path = tmp_path / "spool.bin"
        ch1 = FileChannel(path)
        ch1.send(b"persisted")
        ch2 = FileChannel.__new__(FileChannel)  # attach without truncating
        ch2.path = path
        ch2.link = ETHERNET_10M
        ch2._read_offset = 0
        ch2.bytes_sent = 0
        ch2.messages_sent = 0
        assert ch2.recv() == b"persisted"


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
