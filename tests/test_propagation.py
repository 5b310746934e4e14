"""Tests for wire-level trace-context propagation (DESIGN.md §10).

Covers: the MCTX frame codec (encode/decode/peel), TraceContext
round-trip, span-id plumbing on the tracer, restore-side joining in both
transfer disciplines (including across a real SocketChannel under
fault-injected retries — one connected span tree, one trace id), the
control-frame discipline (context frames must not shift deterministic
fault-plan send indices), clock-offset recording, and the adopted-tracer
two-process merge.
"""

import json

import pytest

from repro.arch import DEC5000, SPARC20
from repro.migration.engine import MigrationEngine, RetryPolicy
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
from repro.obs.propagate import (
    TraceContext,
    adopted_tracer,
    outbound_context,
    restore_site,
)
from repro.obs.spans import Tracer, new_trace_id
from repro.msr.wire import (
    CHUNK_HEADER_SIZE,
    FrameCorruptError,
    TruncatedFrameError,
    decode_context_frame,
    encode_chunk,
    encode_context_frame,
)
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

NO_SLEEP = dict(sleep=lambda _s: None)


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


# -- the MCTX frame codec -----------------------------------------------------


class TestContextFrame:
    def test_round_trip(self):
        frame = encode_context_frame(b"hello world")
        assert frame[:4] == b"MCTX"
        assert decode_context_frame(frame) == b"hello world"

    def test_crc_damage_detected(self):
        frame = bytearray(encode_context_frame(b"payload"))
        frame[-1] ^= 0x40
        with pytest.raises(FrameCorruptError):
            decode_context_frame(bytes(frame))

    def test_truncation_detected(self):
        frame = encode_context_frame(b"payload")
        with pytest.raises(TruncatedFrameError):
            decode_context_frame(frame[:-3])

    def test_peel_returns_rest_untouched(self):
        """The context is a frame of its own ahead of the data frames:
        taking it off the channel leaves the next frame as it was sent."""
        channel = Channel(LOOPBACK)
        channel.send_context(b"ctx")
        channel.send_chunk(b"MIGR-payload-bytes")
        assert channel.recv_context() == b"ctx"
        assert bytes(channel.recv()) == encode_chunk(0, b"MIGR-payload-bytes")

    def test_peel_without_context_is_identity(self):
        """An envelope that does not open with the context frame is
        damage to whoever expects one, not a payload to guess at."""
        channel = Channel(LOOPBACK)
        channel.send_chunk(b"MIGRanything")
        with pytest.raises(FrameCorruptError, match="magic"):
            channel.recv_context()


class TestTraceContext:
    def test_round_trip(self):
        ctx = TraceContext(
            trace_id="0123456789abcdef", parent_span_id=42,
            attempt=3, sent_wall_s=1700000000.25,
        )
        again = TraceContext.from_bytes(ctx.to_bytes())
        assert again == ctx
        assert len(ctx.to_bytes()) == 28

    def test_outbound_requires_observation(self):
        assert outbound_context() is None

    def test_outbound_names_current_span(self):
        obs_ = MigrationObservation("m")
        with obs_.activate():
            with obs_.tracer.span("attempt") as sp:
                ctx = outbound_context(attempt=2, wall_clock=lambda: 5.0)
        assert ctx.trace_id == obs_.tracer.trace_id
        assert ctx.parent_span_id == sp.span.span_id
        assert ctx.attempt == 2
        assert ctx.sent_wall_s == 5.0


class TestRestoreSite:
    def test_joins_matching_trace(self):
        obs_ = MigrationObservation("m")
        with obs_.activate():
            with obs_.tracer.span("attempt") as attempt:
                ctx = outbound_context(wall_clock=lambda: 10.0)
            with restore_site(ctx, wall_clock=lambda: 10.5) as parent:
                assert parent is attempt.span
                with obs_.tracer.span("restore") as restore:
                    pass
        assert restore.span.parent_id == attempt.span.span_id
        assert attempt.span.attrs["clock_offset_s"] == pytest.approx(0.5)
        (ev,) = obs_.events.of_type("trace_context")
        assert ev["joined"] is True
        assert ev["clock_offset_s"] == pytest.approx(0.5)

    def test_foreign_trace_recorded_not_joined(self):
        obs_ = MigrationObservation("m")
        foreign = TraceContext(new_trace_id(), 7, 1, 0.0)
        with obs_.activate():
            with restore_site(foreign) as parent:
                assert parent is None
        (ev,) = obs_.events.of_type("trace_context")
        assert ev["joined"] is False
        assert ev["trace_id"] == foreign.trace_id

    def test_none_context_is_noop(self):
        obs_ = MigrationObservation("m")
        with obs_.activate():
            with restore_site(None) as parent:
                assert parent is None
        assert obs_.events.of_type("trace_context") == []


class TestAdoptedTracer:
    def test_two_process_merge_is_one_connected_tree(self):
        """A destination process restoring a foreign payload builds an
        adopted tracer; merging both sides' span lines yields one
        document the structural validator accepts."""
        src = MigrationObservation("migration")
        with src.activate():
            with src.tracer.span("attempt"):
                ctx = outbound_context()
        src_lines = src.trace_lines()

        dst = adopted_tracer(ctx, name="restore")
        assert dst.trace_id == ctx.trace_id
        assert dst.remote_parent_id == ctx.parent_span_id
        assert dst.root.attrs["remote_parent"] == ctx.parent_span_id
        with dst.span("restore"):
            pass
        dst.finish()
        # splice the destination's spans into the source document; a
        # merge tool reparents the adopted root onto its declared
        # remote parent (which the source side's lines resolve)
        merged = list(src_lines)
        for path, sp in dst.iter_spans():
            pid = sp.parent_id
            if sp is dst.root:
                pid = dst.remote_parent_id
            merged.append({
                "event": "span", "ts": 0.0, "name": sp.name, "path": path,
                "seconds": round(sp.seconds, 9), "count": sp.count,
                "thread": sp.thread, "span_id": sp.span_id,
                "parent_id": pid,
                **({"attrs": sp.attrs} if sp.attrs else {}),
            })
        text = "\n".join(json.dumps(l) for l in merged)
        assert validate_trace_lines(text) == []
        root_line = next(
            l for l in merged
            if l["event"] == "span" and l.get("attrs", {}).get("remote_parent")
        )
        assert root_line["parent_id"] == ctx.parent_span_id

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
                "parent_id": dst.remote_parent_id if sp is dst.root
                             else sp.parent_id,
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


class TestEnginePropagation:
    def test_monolithic_restore_joined_by_wire_context(self, prog, expected):
        proc = stopped(prog)
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=Channel(LOOPBACK)
        )
        dest.run()
        assert dest.stdout == expected
        lines = trace_of(stats)
        spans = assert_connected_tree(lines)
        (ev,) = [l for l in lines if l["event"] == "trace_context"]
        assert ev["joined"] is True
        assert ev["trace_id"] == lines[0]["trace_id"]
        byid = {s["span_id"]: s for s in spans}
        restore = next(s for s in spans if s["name"] == "restore")
        assert byid[restore["parent_id"]]["name"] == "attempt"
        # the wire named the attempt span: the event's parent IS it
        assert ev["parent_span_id"] == restore["parent_id"]

    def test_socket_stream_with_faulty_retries_single_tree(
        self, prog, expected
    ):
        """The acceptance scenario: a real socket, fault-injected
        retries, and the result is ONE schema-valid trace whose restore
        spans are children of their attempt spans via the propagated
        context."""
        proc = stopped(prog)
        channel = FaultyChannel(
            SocketChannel(ETHERNET_10M),
            FaultPlan.parse("bitflip@1:5"),
            deadline=5.0,
        )
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True, chunk_size=512,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, **NO_SLEEP),
        )
        dest.run()
        assert dest.stdout == expected
        assert stats.retries == 1
        lines = trace_of(stats)
        spans = assert_connected_tree(lines)
        assert len({lines[0]["trace_id"]}) == 1
        ctxs = [l for l in lines if l["event"] == "trace_context"]
        assert len(ctxs) == 2  # one per attempt
        assert all(c["joined"] for c in ctxs)
        assert [c["attempt"] for c in ctxs] == [1, 2]
        byid = {s["span_id"]: s for s in spans}
        attempts = [s for s in spans if s["name"] == "attempt"]
        assert len(attempts) == 2
        for s in spans:
            if s["name"] == "pipeline":
                assert byid[s["parent_id"]]["name"] == "attempt"
        # each attempt's context named that attempt's span
        assert sorted(c["parent_span_id"] for c in ctxs) == sorted(
            a["span_id"] for a in attempts
        )

    def test_clock_offset_recorded_and_plausible(self, prog):
        proc = stopped(prog)
        _, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=Channel(LOOPBACK)
        )
        (ev,) = [
            l for l in trace_of(stats) if l["event"] == "trace_context"
        ]
        # loopback, same host: offset = in-process latency, tiny but >= 0
        assert 0.0 <= ev["clock_offset_s"] < 5.0

    def test_context_frames_do_not_shift_fault_indices(self, prog, expected):
        """Fault('drop', 0) must still hit the FIRST DATA chunk even
        though a context control frame now precedes it on the wire —
        the control path bypasses the fault plan's send counter."""
        proc = stopped(prog)
        channel = FaultyChannel(
            Channel(LOOPBACK), FaultPlan.parse("drop@0"), deadline=1.0
        )
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True, chunk_size=2048,
            retry=RetryPolicy(max_attempts=2, **NO_SLEEP),
        )
        dest.run()
        assert dest.stdout == expected
        assert stats.retries == 1  # the drop fired on a data frame
        assert channel.faults_fired and channel.faults_fired[0].kind == "drop"

    def test_tx_time_excludes_context_plumbing(self, prog):
        """The modeled Tx charges the data frames — the payload, its one
        chunk header and the terminator — over latency + bits/bandwidth,
        with the 44-byte context frame not charged."""
        proc = stopped(prog)
        channel = Channel(ETHERNET_10M)
        _, stats = MigrationEngine().migrate(proc, SPARC20, channel=channel)
        framed = stats.payload_bytes + 2 * CHUNK_HEADER_SIZE
        assert stats.tx_time == pytest.approx(ETHERNET_10M.transfer_time(framed))
        assert channel.accepted_bytes == framed + CHUNK_HEADER_SIZE + 28

    def test_context_frame_metric_counted(self, prog):
        proc = stopped(prog)
        _, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=Channel(LOOPBACK), streaming=True,
            chunk_size=1024,
        )
        snap = stats.obs.metrics.snapshot()
        assert snap["counters"]["wire.context_frames_sent"] == 1
