"""Tests for the network transport model."""

import pytest

from repro.migration.transport import (
    Channel,
    ChannelTimeoutError,
    ETHERNET_10M,
    ETHERNET_100M,
    FaultPlan,
    FaultyChannel,
    GIGABIT,
    Link,
    LOOPBACK,
    SocketChannel,
)


class TestLinkModel:
    def test_transfer_time_formula(self):
        link = Link("test", bandwidth_bps=1e6, latency_s=0.01)
        # 1000 bytes = 8000 bits over 1 Mb/s = 8 ms, plus 10 ms latency
        assert link.transfer_time(1000) == pytest.approx(0.018)

    def test_zero_bytes_pays_latency_only(self):
        assert ETHERNET_10M.transfer_time(0) == pytest.approx(ETHERNET_10M.latency_s)

    def test_paper_links_ordering(self):
        nbytes = 1_000_000
        assert (
            ETHERNET_10M.transfer_time(nbytes)
            > ETHERNET_100M.transfer_time(nbytes)
            > GIGABIT.transfer_time(nbytes)
            > LOOPBACK.transfer_time(nbytes)
        )

    def test_paper_table1_tx_plausible(self):
        """Paper Table 1: linpack 1000² Tx = 0.6523 s over 100 Mb/s.
        An 8 MB matrix: 8e6 B * 8 / 1e8 = 0.64 s — the model lands on the
        paper's number, which is a strong sign Tx was bandwidth-bound."""
        payload = 8_000_000 + 150_000  # matrix + ipvt/b/x + framing
        t = ETHERNET_100M.transfer_time(payload)
        assert 0.6 < t < 0.7


class TestChannel:
    def test_fifo_delivery(self):
        ch = Channel(LOOPBACK)
        ch.send(b"one")
        ch.send(b"two")
        assert ch.recv() == b"one"
        assert ch.recv() == b"two"

    def test_send_returns_modeled_time(self):
        ch = Channel(ETHERNET_10M)
        t = ch.send(b"x" * 10_000)
        assert t == pytest.approx(ETHERNET_10M.transfer_time(10_000))

    def test_accounting(self):
        ch = Channel(LOOPBACK)
        ch.send(b"abc")
        ch.send(b"defg")
        assert ch.bytes_sent == 7
        # two messages, whole and in order, and nothing else queued
        assert [ch.recv(), ch.recv()] == [b"abc", b"defg"]
        with pytest.raises(ChannelTimeoutError):
            ch.recv()

    def test_recv_empty_raises(self):
        ch = Channel(LOOPBACK)
        with pytest.raises(ChannelTimeoutError, match="empty"):
            ch.recv()


#: every channel kind
CHANNELS = {
    "memory": lambda: Channel(LOOPBACK),
    "socket": lambda: SocketChannel(LOOPBACK),
}


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "faulty"])
@pytest.mark.parametrize("kind", CHANNELS)
def test_an_empty_receive_is_a_timeout(kind, wrapped):
    """No read blocks, so nothing queued is a typed timeout on every
    channel — bare or under a fault-free ``FaultyChannel`` — for a whole
    message and for a chunk frame alike."""
    ch = CHANNELS[kind]()
    if wrapped:
        ch = FaultyChannel(ch, FaultPlan())
    try:
        with pytest.raises(ChannelTimeoutError, match="stalled"):
            ch.recv()
        with pytest.raises(ChannelTimeoutError, match="stalled"):
            ch.recv_chunk()
    finally:
        ch.close()
