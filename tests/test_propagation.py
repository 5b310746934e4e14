"""Tests for trace identity across a migration (DESIGN.md §10).

Covers: the span tree of one migration — the restore side's spans sit
under the ``attempt`` span that ran them, on every channel and in both
schedules, including across a real SocketChannel under fault-injected
retries, with nothing about the trace on the wire.
"""

import json

import pytest

from repro.arch import DEC5000, SPARC20
from repro.migration.engine import MigrationEngine
from repro.migration.transport import (
    Channel,
    ETHERNET_10M,
    FaultPlan,
    FaultyChannel,
    LOOPBACK,
    SocketChannel,
)
from repro.obs import validate_trace_lines
from repro.msr.wire import CHUNK_HEADER_SIZE
from repro.vm.process import Process
from repro.vm.program import compile_program

PROGRAM = """
struct node { double w; struct node *next; };
struct node *ring;
double table[300];
int main() {
    int i;
    for (i = 0; i < 40; i++) {
        struct node *e = (struct node *) malloc(sizeof(struct node));
        e->w = i * 0.5; e->next = ring; ring = e;
    }
    for (i = 0; i < 300; i++) table[i] = i * 1.25;
    migrate_here();
    { struct node *p; double s = 0.0;
      for (p = ring; p != NULL; p = p->next) s += p->w;
      for (i = 0; i < 300; i++) s += table[i];
      printf("%d", (int) s); }
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


def trace_of(stats) -> list[dict]:
    text = stats.obs.to_jsonl()
    assert validate_trace_lines(text) == []
    return [json.loads(line) for line in text.splitlines()]


def spans_of(lines):
    return [l for l in lines if l["event"] == "span"]


def assert_connected_tree(lines):
    """One header, one trace id, every span's parent resolves in-doc."""
    headers = [l for l in lines if l["event"] == "trace_header"]
    assert len(headers) == 1
    spans = spans_of(lines)
    ids = {s["span_id"] for s in spans}
    assert len(ids) == len(spans), "span ids must be unique"
    roots = [s for s in spans if s["parent_id"] == -1]
    assert len(roots) == 1
    for s in spans:
        assert s["parent_id"] == -1 or s["parent_id"] in ids
    return spans


def assert_restore_under_attempt(spans, restore_name):
    """Every *restore_name* span hangs under an ``attempt`` span; one
    does."""
    byid = {s["span_id"]: s for s in spans}
    restores = [s for s in spans if s["name"] == restore_name]
    assert restores
    for s in restores:
        assert byid[s["parent_id"]]["name"] == "attempt"
    return restores


# -- engine integration -------------------------------------------------------


CHANNELS = {
    "memory": lambda: Channel(LOOPBACK),
    "socket": lambda: SocketChannel(link=LOOPBACK),
}


class TestEnginePropagation:
    @pytest.mark.parametrize("streaming", [False, True], ids=["serial", "pipelined"])
    @pytest.mark.parametrize("kind", CHANNELS)
    def test_restore_spans_sit_under_the_attempt(
        self, prog, expected, kind, streaming
    ):
        """No frame names the attempt, yet the restore side joins it: the
        restore span is the attempt span's child on every channel,
        however the payload is cut, and collection lies under the same
        attempt."""
        channel = CHANNELS[kind]()
        try:
            dest, stats = MigrationEngine().migrate(
                stopped(prog), SPARC20, channel=channel,
                streaming=streaming, chunk_size=512,
            )
        finally:
            channel.close()
        dest.run()
        assert dest.stdout == expected
        spans = assert_connected_tree(trace_of(stats))
        assert_restore_under_attempt(spans, "restore")
        byid = {s["span_id"]: s for s in spans}

        def under_attempt(span):
            while span["parent_id"] in byid:
                span = byid[span["parent_id"]]
                if span["name"] == "attempt":
                    return True
            return False

        collects = [s for s in spans if s["name"] == "collect"]
        assert collects and all(map(under_attempt, collects))

    def test_socket_stream_with_faulty_retries_single_tree(
        self, prog, expected
    ):
        """The acceptance scenario: a real socket, fault-injected
        retries, and the result is ONE schema-valid trace in which the
        restore span is a child of the attempt that arrived: the damaged
        frame stopped the first attempt before anything was restored."""
        proc = stopped(prog)
        channel = FaultyChannel(
            SocketChannel(ETHERNET_10M),
            FaultPlan.parse("bitflip@1:5"),
        )
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True, chunk_size=512,
            max_attempts=3,
        )
        dest.run()
        assert dest.stdout == expected
        assert stats.retries == 1
        lines = trace_of(stats)
        spans = assert_connected_tree(lines)
        attempts = [s for s in spans if s["name"] == "attempt"]
        assert len(attempts) == 2
        restores = assert_restore_under_attempt(spans, "restore")
        assert [s["parent_id"] for s in restores] == [attempts[-1]["span_id"]]

    def test_tx_time_charges_every_frame(self, prog):
        """The modeled Tx charges everything the attempt put on the
        channel — the payload, its one chunk header and the terminator —
        over latency + bits/bandwidth; nothing else was sent."""
        proc = stopped(prog)
        channel = Channel(ETHERNET_10M)
        _, stats = MigrationEngine().migrate(proc, SPARC20, channel=channel)
        framed = stats.payload_bytes + 2 * CHUNK_HEADER_SIZE
        assert stats.tx_time == pytest.approx(ETHERNET_10M.transfer_time(framed))
        assert channel.accepted_bytes == framed
