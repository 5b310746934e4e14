"""Tests for trace identity across a migration (DESIGN.md §10).

Covers: the span tree of one migration — the restore side's spans sit
under the ``attempt`` span that ran them, on every channel and in both
schedules, including across a real SocketChannel under fault-injected
retries, with nothing about the trace on the wire — and the adopted
tracer a later hop of a chain continues the trace with (the two-process
merge, the validator's ``attrs.remote_parent`` escape).
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
from repro.obs import MigrationObservation, validate_trace_lines
from repro.obs.events import TRACE_SCHEMA_VERSION
from repro.obs.spans import Tracer, new_trace_id
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


class TestAdoptedTracer:
    def test_two_process_merge_is_one_connected_tree(self):
        """A destination process restoring a foreign payload builds an
        adopted tracer; merging both sides' span lines yields one
        document the structural validator accepts."""
        src = MigrationObservation("migration")
        with src.activate():
            with src.tracer.span("attempt") as attempt:
                pass
        src_lines = src.trace_lines()
        parent = attempt.span.span_id

        dst = Tracer.adopt_remote("restore", src.tracer.trace_id, parent)
        assert dst.trace_id == src.tracer.trace_id
        assert dst.root.attrs["remote_parent"] == parent
        with dst.span("restore"):
            pass
        dst.finish()
        # splice the destination's spans into the source document; a
        # merge tool reparents the adopted root onto its declared
        # remote parent (which the source side's lines resolve)
        merged = list(src_lines)
        for path, sp in dst.iter_spans():
            merged.append({
                "event": "span", "ts": 0.0, "name": sp.name, "path": path,
                "seconds": round(sp.seconds, 9), "count": sp.count,
                "thread": sp.thread, "span_id": sp.span_id,
                "parent_id": parent if sp is dst.root else sp.parent_id,
                **({"attrs": sp.attrs} if sp.attrs else {}),
            })
        text = "\n".join(json.dumps(l) for l in merged)
        assert validate_trace_lines(text) == []
        root_line = next(
            l for l in merged
            if l["event"] == "span" and l.get("attrs", {}).get("remote_parent")
        )
        assert root_line["parent_id"] == parent

    def test_remote_parent_escape_validates_standalone(self):
        """The destination's trace alone — where the root's parent lives
        in *another* document — must still validate via the declared
        ``attrs.remote_parent`` escape."""
        dst = Tracer.adopt_remote("restore", new_trace_id(), 3)
        with dst.span("restore"):
            pass
        dst.finish()
        lines = [{
            "event": "trace_header", "ts": 0.0,
            "schema": TRACE_SCHEMA_VERSION,
            "tool": "repro", "trace_id": dst.trace_id,
        }]
        for path, sp in dst.iter_spans():
            lines.append({
                "event": "span", "ts": 0.0, "name": sp.name, "path": path,
                "seconds": round(sp.seconds, 9), "count": sp.count,
                "thread": sp.thread, "span_id": sp.span_id,
                "parent_id": 3 if sp is dst.root else sp.parent_id,
                **({"attrs": sp.attrs} if sp.attrs else {}),
            })
        assert validate_trace_lines(
            "\n".join(json.dumps(l) for l in lines)
        ) == []

    def test_adopted_ids_do_not_collide_with_source(self):
        src = Tracer("m")
        with src.span("attempt") as attempt:
            pass
        src.finish()
        dst = Tracer.adopt_remote(
            "restore", src.trace_id, attempt.span.span_id
        )
        with dst.span("restore") as r:
            pass
        dst.finish()
        src_ids = {sp.span_id for _, sp in src.iter_spans()}
        dst_ids = {sp.span_id for _, sp in dst.iter_spans()}
        assert not (src_ids & dst_ids)
        assert r.span.span_id > attempt.span.span_id


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
        restore (serial) or pipeline span is the attempt span's child on
        every channel, and collection — on the socket, a producer
        thread's — lies under the same attempt."""
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
        assert_restore_under_attempt(spans, "pipeline" if streaming else "restore")
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
        retries, and the result is ONE schema-valid trace in which each
        attempt's pipeline span is a child of that attempt's span."""
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
        pipelines = assert_restore_under_attempt(spans, "pipeline")
        # one pipeline per attempt, each under its own
        assert sorted(s["parent_id"] for s in pipelines) == sorted(
            a["span_id"] for a in attempts
        )

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
