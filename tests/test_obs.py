"""Tests for the observability layer (spans, counters, event log) and the
stats/cache bugfix sweep it landed with.

Covers: span nesting, counter determinism under retries, JSONL trace
schema round-trip, and regressions for the overlap-ratio codec fold,
the unconditional Degraded surfacing, and aborted-attempt codec
accounting.
"""

import json

import pytest

from repro.arch import DEC5000, SPARC20
from repro.migration import Cluster, ETHERNET_100M, Scheduler
from repro.migration.engine import MigrationEngine
from repro.migration.precopy import PrecopyPolicy
from repro.migration.stats import MigrationStats
from repro.migration.transport import (
    Channel,
    Fault,
    FaultPlan,
    FaultyChannel,
    LOOPBACK,
)
from repro.obs import (
    MigrationObservation,
    TRACE_SCHEMA_VERSION,
    validate_trace_file,
    validate_trace_lines,
    validate_trace_obj,
)
from repro.obs.events import EventLog
from repro.obs.spans import NULL_TRACER, Tracer
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import bitonic_source, linpack_source, structgrid_source
from repro.workloads import test_pointer_source as pointer_source

# same shape as the fault-suite program: a pointer ring plus a large,
# highly compressible double table (so compressed streams have real
# codec work to account for)
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


def subtree(span):
    """All spans under (and including) *span*, depth-first."""
    out = [span]
    for child in span.children:
        out.extend(subtree(child))
    return out


# -- span tree ----------------------------------------------------------------


class TestTracer:
    def test_spans_nest(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner", k=1):
                pass
        outer = tr.root.children[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.children[0].attrs == {"k": 1}
        assert outer.seconds >= outer.children[0].seconds >= 0.0

    def test_lap_accumulates_one_span(self):
        tr = Tracer()
        for _ in range(5):
            with tr.lap("codec.deflate"):
                pass
        spans = tr.find("codec.deflate")
        assert len(spans) == 1
        assert spans[0].count == 5

    def test_lap_keyed_by_parent(self):
        tr = Tracer()
        for _ in range(2):
            with tr.span("attempt"):
                with tr.lap("codec.deflate"):
                    pass
        # one accumulating span per attempt, not one global one
        assert len(tr.find("codec.deflate")) == 2

    def test_record_uses_supplied_duration(self):
        tr = Tracer()
        tr.record("tx", 0.25, modeled=True)
        (tx,) = tr.find("tx")
        assert tx.seconds == 0.25 and tx.count == 1
        assert tx.attrs == {"modeled": True}

    def test_total_and_prefix(self):
        tr = Tracer()
        tr.record("codec.deflate", 0.5)
        tr.record("codec.inflate", 0.25)
        tr.record("collect", 1.0)
        assert tr.total("collect") == 1.0
        assert tr.total_prefix("codec.") == 0.75

    def test_iter_spans_paths(self):
        tr = Tracer()
        with tr.span("attempt"):
            with tr.span("collect"):
                pass
        paths = [p for p, _ in tr.iter_spans()]
        assert paths == ["migration", "migration/attempt",
                         "migration/attempt/collect"]

    def test_finish_closes_root_once(self):
        tr = Tracer()
        root = tr.finish()
        end = root.end_s
        assert end is not None and root.seconds == end
        tr.finish()
        assert root.end_s == end  # idempotent

    def test_null_tracer_handles_still_time(self):
        with NULL_TRACER.lap("codec.deflate") as timed:
            sum(range(1000))
        assert timed.seconds >= 0.0
        assert NULL_TRACER.record("tx", 1.0) is None


# -- event log + trace schema -------------------------------------------------


class TestEventLogAndSchema:
    def test_emit_stamps_relative_monotonic_ts(self):
        log = EventLog()
        e1 = log.emit("attempt_begin", attempt=1, streaming=False)
        e2 = log.emit("attempt_begin", attempt=2, streaming=False)
        assert 0.0 <= e1["ts"] <= e2["ts"]
        assert [e["attempt"] for e in log.of_type("attempt_begin")] == [1, 2]

    def test_unknown_event_type_rejected(self):
        errs = validate_trace_obj({"event": "chnuk", "ts": 0.0})
        assert any("unknown event" in e for e in errs)

    def test_missing_field_rejected(self):
        errs = validate_trace_obj({"event": "backoff", "ts": 0.0, "attempt": 1})
        assert any("delay_s" in e for e in errs)

    def test_bool_is_not_a_number(self):
        errs = validate_trace_obj(
            {"event": "backoff", "ts": 0.0, "attempt": 1, "delay_s": True}
        )
        assert errs == ["event 'backoff': field 'delay_s' has wrong type bool"]

    def test_negative_ts_rejected(self):
        errs = validate_trace_obj(
            {"event": "fault", "ts": -0.5, "kind": "drop", "index": 2}
        )
        assert any("'ts'" in e for e in errs)

    def test_document_must_open_with_header(self):
        doc = json.dumps({"event": "backoff", "ts": 0.0,
                          "attempt": 1, "delay_s": 0.0})
        assert any("trace_header" in e for e in validate_trace_lines(doc))

    def test_schema_version_checked(self):
        doc = json.dumps({"event": "trace_header", "ts": 0.0,
                          "schema": 999, "tool": "repro"})
        assert any("schema" in e for e in validate_trace_lines(doc))

    def test_a_schema_5_trace_is_rejected(self):
        """Version 5 wrote a ``trace_context`` event per attempt; the
        event type is gone, and so is the version."""
        doc = "\n".join(json.dumps(line) for line in (
            {"event": "trace_header", "ts": 0.0, "schema": 5, "tool": "repro",
             "trace_id": "00" * 8},
            {"event": "trace_context", "ts": 0.0, "trace_id": "00" * 8,
             "parent_span_id": 1, "attempt": 1, "clock_offset_s": 0.0,
             "joined": True},
        ))
        errors = validate_trace_lines(doc)
        assert any("schema 5 != 10" in e for e in errors)
        assert any("unknown event type 'trace_context'" in e for e in errors)

    def test_a_schema_6_trace_is_refused(self):
        """Version 6 wrote the pipeline event's ``occupancy`` (the socket
        producer thread's busy fraction); the field is gone, and so is
        the version."""
        doc = "\n".join(json.dumps(line) for line in (
            {"event": "trace_header", "ts": 0.0, "schema": 6, "tool": "repro",
             "trace_id": "00" * 8},
            {"event": "pipeline", "ts": 0.0, "wall_s": 0.001, "n_chunks": 2,
             "occupancy": 0.0},
        ))
        assert any("schema 6 != 10" in e for e in validate_trace_lines(doc))

    def test_a_schema_7_trace_is_refused(self):
        """Version 7 wrote a ``thread`` on every span line, a ``chunk``
        event per chunk, the ``pipeline`` event and the ring buffer's
        ``events_dropped`` marker; all four are gone, and so is the
        version."""
        doc = "\n".join(json.dumps(line) for line in (
            {"event": "trace_header", "ts": 0.0, "schema": 7, "tool": "repro",
             "trace_id": "00" * 8},
            {"event": "events_dropped", "ts": 0.0, "dropped": 1, "capacity": 1},
            {"event": "chunk", "ts": 0.0, "seq": 0, "collect_busy_s": 0.0},
            {"event": "pipeline", "ts": 0.0, "wall_s": 0.001, "n_chunks": 1},
            {"event": "span", "ts": 0.0, "name": "migration",
             "path": "migration", "seconds": 0.0, "count": 1,
             "thread": "MainThread", "span_id": 0, "parent_id": -1},
        ))
        errors = validate_trace_lines(doc)
        assert errors[0] == "line 1: schema 7 != 10"
        assert "line 2: unknown event type 'events_dropped'" in errors
        assert "line 3: unknown event type 'chunk'" in errors
        assert "line 4: unknown event type 'pipeline'" in errors

    def test_a_schema_8_trace_is_refused_in_one_line(self):
        """Version 8 wrote engagement (``flat`` / ``codec`` /
        ``percell``), ``cells`` and MSRLT lookup columns on every
        attribution row, and the pre-copy scope and abandoned attempts
        beside the table; the columns are gone, and so is the version."""
        doc = "\n".join(json.dumps(line) for line in (
            {"event": "trace_header", "ts": 0.0, "schema": 8, "tool": "repro",
             "trace_id": "00" * 8},
            {"event": "attribution", "ts": 0.0, "payload_bytes": 4,
             "rows": [dict(KEPT_ROW, cells=1, flat=1, codec=0, percell=0,
                           msrlt_searches=0, msrlt_depth=0)],
             "scopes": {}, "abandoned": {}},
        ))
        assert validate_trace_lines(doc) == ["line 1: schema 8 != 10"]

    def test_a_schema_9_precopy_end_is_refused(self):
        """Version 9's ``precopy_end`` did not say whether the pre-copy
        converged or stopped at its round cap; the field is required
        now, and the version is gone."""
        doc = "\n".join(json.dumps(line) for line in (
            {"event": "trace_header", "ts": 0.0, "schema": 9, "tool": "repro",
             "trace_id": "00" * 8},
            {"event": "precopy_end", "ts": 0.0, "rounds": 2, "dirty_blocks": 1,
             "cached_blocks": 3, "bytes": 40},
        ))
        assert validate_trace_lines(doc) == [
            "line 1: schema 9 != 10",
            "line 2: event 'precopy_end': missing field 'converged'",
        ]

    def test_an_attribution_row_is_the_kept_columns(self):
        doc = "\n".join(json.dumps(line) for line in (
            {"event": "trace_header", "ts": 0.0, "schema": 10, "tool": "repro",
             "trace_id": "00" * 8},
            {"event": "attribution", "ts": 0.0, "payload_bytes": 4,
             "rows": [KEPT_ROW]},
        ))
        assert validate_trace_lines(doc) == []
        for field in KEPT_ROW:
            row = {k: v for k, v in KEPT_ROW.items() if k != field}
            errs = validate_trace_obj(
                {"event": "attribution", "ts": 0, "payload_bytes": 4, "rows": [row]}
            )
            assert errs == [f"attribution row 0: missing field {field!r}"]

    def test_a_root_naming_a_foreign_parent_is_dangling(self):
        """A root parented in another document (what cross-hop trace
        adoption wrote, with ``attrs.remote_parent``) is refused like
        any ``parent_id`` the document does not resolve."""
        span = {"event": "span", "ts": 0.0, "name": "migration",
                "path": "migration", "seconds": 0.0, "count": 1,
                "span_id": 1 << 32, "parent_id": 3,
                "attrs": {"remote_parent": 3}}
        doc = "\n".join(json.dumps(line) for line in (
            {"event": "trace_header", "ts": 0.0, "schema": 10, "tool": "repro",
             "trace_id": "00" * 8},
            span,
        ))
        assert validate_trace_lines(doc) == [
            f"line 2: span {1 << 32} has parent_id 3 which resolves to no "
            f"span in this document"
        ]

    @pytest.mark.parametrize("row,says", [
        ("x", "attribution row 0: not a JSON object"),
        ({"type": "int", "bytes": "x"}, "field 'bytes' has wrong type str"),
        ({"type": 3}, "field 'type' has wrong type int"),
        ({}, "missing field 'collect_s'"),
    ])
    def test_attribution_rows_are_checked(self, row, says):
        errs = validate_trace_obj(
            {"event": "attribution", "ts": 0, "payload_bytes": 1, "rows": [row]}
        )
        assert any(says in e for e in errs), errs

    def test_counters_are_ints(self):
        errs = validate_trace_obj(
            {"event": "metrics", "ts": 0, "counters": {"a": 1, "b": [2]}}
        )
        assert errs == ["counter 'b' is not an int"]

    def test_garbage_lines_and_empty_docs_reported(self):
        assert validate_trace_lines("") == ["trace is empty"]
        assert any("not valid JSON" in e for e in validate_trace_lines("{nope"))


#: one schema-9 attribution row: every column it has, no other
KEPT_ROW = {
    "type": "int", "class": "global", "bytes": 4, "blocks": 1,
    "collect_s": 0.0, "restore_s": 0.0, "restore_bytes": 4,
    "restore_blocks": 1,
}


# -- bugfix regressions -------------------------------------------------------


class TestDegradedSurfacing:
    """"Degraded" means one thing — a pre-copy that fell back to the
    plain stop-and-copy — and row()/__str__ report it unconditionally,
    not only when retries > 0 (a failed pre-copy *phase* is followed by
    a first attempt, not by a retry)."""

    def test_row_reports_degraded_without_retries(self):
        s = MigrationStats(precopy_degraded=True)
        assert s.retries == 0
        assert s.row()["PrecopyDegraded"] is True

    def test_str_reports_degraded_without_retries(self):
        s = MigrationStats(precopy_degraded=True)
        assert "precopy degraded to stop-and-copy" in str(s)

    def test_row_reports_degraded_with_retries_too(self):
        s = MigrationStats(precopy_degraded=True, retries=2, attempts=3)
        assert s.row()["PrecopyDegraded"] is True
        assert "precopy degraded to stop-and-copy" in str(s)

    def test_clean_migration_has_no_degraded_key(self):
        row = MigrationStats().row()
        assert "PrecopyDegraded" not in row and "Degraded" not in row
        assert "degraded" not in str(MigrationStats())


class TestCodecAccounting:
    """An aborted-then-retried compressed stream must not lose codec
    seconds."""

    def test_aborted_attempt_codec_time_is_not_lost(self, prog, expected):
        proc = stopped(prog)
        channel = FaultyChannel(Channel(LOOPBACK),
                                FaultPlan([Fault("drop", 2)]))
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True, chunk_size=512,
            compress=True, max_attempts=3,
        )
        assert stats.retries >= 1
        # the aborted first attempt really did codec work...
        attempts = stats.obs.tracer.find("attempt")
        assert len(attempts) >= 2
        first_attempt_codec = sum(
            s.seconds for s in subtree(attempts[0])
            if s.name.startswith("codec.")
        )
        assert first_attempt_codec > 0.0
        # ...and the reported total covers every attempt: it is the span
        # tree's own codec total (the only ledger there is)
        assert stats.codec_time == pytest.approx(
            stats.obs.tracer.total_prefix("codec."), rel=1e-9)
        assert stats.codec_time > first_attempt_codec
        dest.run()
        assert dest.stdout == expected


# -- spans / metrics / events on real migrations ------------------------------


class TestMigrationObservability:
    def test_metrics_snapshot_deterministic_under_retries(self, prog):
        """Counters hold counts/bytes only — two migrations driven by the
        same fault plan over the same payload render identically, sorted
        by name, and the rendering is a copy of the record."""

        def run_once():
            proc = stopped(prog)
            channel = FaultyChannel(Channel(LOOPBACK),
                                    FaultPlan([Fault("drop", 2)]))
            _, stats = MigrationEngine().migrate(
                proc, SPARC20, channel=channel, streaming=True,
                chunk_size=512, compress=True,
                max_attempts=3,
            )
            return stats

        first, second = run_once(), run_once()
        c = first.counters()
        assert c == second.counters()
        assert list(c) == sorted(c)
        assert c["engine.attempts"] == 2 and c["engine.retries"] == 1
        assert c["faults.injected"] == 1 and c["faults.drop"] == 1
        assert c["engine.aborted_bytes"] > 0
        assert c["wire.chunks_sent"] > c["wire.chunks_received"] > 0
        assert c["codec.bytes_saved"] > 0
        assert c["msrlt.searches"] > 0 and c["msrlt.registrations"] > 0
        c["engine.attempts"] = 99
        assert first.counters()["engine.attempts"] == 2

    def test_events_tell_the_retry_story(self, prog):
        proc = stopped(prog)
        channel = FaultyChannel(Channel(LOOPBACK),
                                FaultPlan([Fault("drop", 2)]))
        _, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True, chunk_size=512,
            max_attempts=3,
        )
        events = stats.obs.events
        assert [e["attempt"] for e in events.of_type("attempt_begin")] == [1, 2]
        assert events.of_type("fault")[0]["kind"] == "drop"
        (end,) = events.of_type("migration_end")
        assert end["attempts"] == 2
        # the story is what the migration did: a multi-chunk stream adds
        # no event per chunk
        assert stats.n_chunks > 2
        assert [e["event"] for e in events.events] == [
            "migration_begin", "attempt_begin", "fault", "attempt_fail",
            "backoff", "attempt_begin", "migration_end",
        ]

    def test_event_log_does_not_depend_on_chunk_size(self, prog):
        """The same streamed migration emits the same sequence of events
        at any chunk size: a 1-byte chunk adds laps to spans, not events.
        Frame 1 exists at every size (at 64 KiB it is the terminator)."""
        names = {}
        for chunk_size in (1, 7, 65536):
            channel = FaultyChannel(Channel(LOOPBACK),
                                    FaultPlan([Fault("drop", 1)]))
            _, stats = MigrationEngine().migrate(
                stopped(prog), SPARC20, channel=channel, streaming=True,
                chunk_size=chunk_size, max_attempts=2,
            )
            names[chunk_size] = [e["event"] for e in stats.obs.events.events]
        assert names[1] == names[7] == names[65536]
        assert "backoff" in names[1]

    def test_trace_jsonl_round_trips(self, prog, tmp_path):
        proc = stopped(prog)
        _, stats = MigrationEngine().migrate(
            proc, SPARC20, streaming=True, chunk_size=512, compress=True)
        text = stats.obs.to_jsonl()
        assert validate_trace_lines(text) == []
        lines = [json.loads(ln) for ln in text.splitlines()]
        header = lines[0]
        assert header["event"] == "trace_header"
        assert header["schema"] == TRACE_SCHEMA_VERSION
        kinds = {ln["event"] for ln in lines}
        assert kinds == {"trace_header", "migration_begin", "attempt_begin",
                         "migration_end", "span", "metrics"}
        span_paths = {ln["path"] for ln in lines if ln["event"] == "span"}
        assert "migration" in span_paths
        assert any(p.endswith("/collect") for p in span_paths)
        # the snapshot's machine-readable form: one line, counters only
        assert lines[-1] == {"event": "metrics", "ts": lines[-1]["ts"],
                             "counters": stats.counters()}
        assert set(lines[-1]) == {"event", "ts", "counters"}
        # file export validates identically
        out = tmp_path / "trace.jsonl"
        stats.obs.write_trace(out)
        assert validate_trace_file(out) == []

    def test_stats_without_observation_are_inert(self):
        s = MigrationStats(collect_time=1.0)
        assert s.obs is None and s.span_totals() == {}


# -- span sums reconcile with MigrationStats across the paper's matrix --------

WORKLOADS = {
    "linpack": lambda: linpack_source(n=24),
    "bitonic": lambda: bitonic_source(n=48, seed=3),
    "test_pointer": lambda: pointer_source(),
    "structgrid": lambda: structgrid_source(n_cells=24, n_probes=6, seed=3),
}

_workload_progs = {}


def workload_prog(name):
    if name not in _workload_progs:
        _workload_progs[name] = compile_program(
            WORKLOADS[name](), poll_strategy="user")
    return _workload_progs[name]


@pytest.mark.parametrize("src,dst", [(DEC5000, SPARC20), (SPARC20, DEC5000)],
                         ids=["dec-to-sparc", "sparc-to-dec"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestSpanReconciliation:
    """MigrationStats is a read-out of the span tree: per-phase span
    totals must reconcile with the reported timings (within 1%) for the
    paper's workloads in both architecture directions."""

    def test_span_sums_match_stats(self, name, src, dst):
        prog = workload_prog(name)
        proc = stopped(prog, src)
        streaming = name in ("linpack", "structgrid")
        dest, stats = MigrationEngine().migrate(
            proc, dst, streaming=streaming, chunk_size=1024,
            compress=(name == "bitonic"),
        )
        totals = stats.span_totals()
        phase_sum = totals["collect"] + totals["tx"] + totals["restore"]
        assert phase_sum == pytest.approx(stats.migration_time, rel=0.01)
        assert totals["codec"] == pytest.approx(
            stats.codec_time, rel=1e-9, abs=1e-12)
        base = Process(prog, src)
        base.run_to_completion()
        dest.run()
        assert dest.stdout == base.stdout


# -- the instruments that stay agree where they overlap -----------------------

# the PROGRAM above with poll-points left to slice on: every pass of the
# tail loop writes one table cell and the ring head, so a pre-copy with
# stop_dirty_blocks=0 never converges and runs exactly max_rounds slices
SLICED_PROGRAM = """
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
    for (i = 0; i < 6; i++) {
        migrate_here();
        table[i] = table[i] + 1.0; ring->w = ring->w + i;
    }
    { struct node *p; double s = 0.0;
      for (p = ring; p != NULL; p = p->next) s += p->w;
      for (i = 0; i < 300; i++) s += table[i];
      printf("%d", (int) s); }
    return 0;
}
"""

STREAM = dict(streaming=True, chunk_size=512)
ONE_DROP = [Fault("drop", 2)]

#: mode -> (migrate() keywords, the transient faults its channel injects)
MODES = {
    "mono": ({}, []),
    "stream": (STREAM, []),
    "stream+compress": (dict(STREAM, compress=True), []),
    "precopy": (dict(precopy=True, precopy_policy=PrecopyPolicy(
        max_rounds=3, stop_dirty_blocks=0)), []),
    "retried": (dict(STREAM, max_attempts=3),
                ONE_DROP),
}


@pytest.fixture(scope="module")
def sliced_prog():
    return compile_program(SLICED_PROGRAM, poll_strategy="user")


def migrate_in_mode(prog, mode, attribution):
    """One migration of *prog* in *mode*; returns its stats, the bytes
    its channel accepted and the program's output."""
    kwargs, faults = MODES[mode]
    channel = FaultyChannel(Channel(LOOPBACK), FaultPlan(list(faults)))
    dest, stats = MigrationEngine().migrate(
        stopped(prog), SPARC20, channel=channel, attribution=attribution,
        **kwargs,
    )
    dest.run()
    return stats, channel.accepted_bytes, dest.stdout


#: the columns of an attribution row: bytes, blocks and seconds per
#: phase, keyed by (type, class)
ATTRIBUTION_ROW_KEYS = {
    "type", "class", "bytes", "blocks", "collect_s", "restore_s",
    "restore_bytes", "restore_blocks",
}


@pytest.mark.parametrize("mode", list(MODES))
class TestInstrumentsAgree:
    """Where two of the instruments that stay report the same quantity
    (DESIGN §9's table), they report the same number — in every transfer
    mode, failed attempts included."""

    def test_same_numbers_everywhere(self, sliced_prog, mode):
        stats, wire, stdout = migrate_in_mode(sliced_prog, mode, True)
        obs = stats.obs
        base = Process(sliced_prog, DEC5000)
        base.run_to_completion()
        assert stdout == base.stdout
        assert stats.attempts == (2 if mode == "retried" else 1)
        assert stats.precopy == (mode == "precopy")
        if mode == "mono":  # the serial schedule: one chunk
            assert (stats.n_chunks, stats.streamed) == (1, False)

        counters = stats.counters()
        assert (stats.aborted_bytes > 0) == (stats.attempts > 1)

        # MigrationStats == the span tree: the phase times are the
        # successful attempt's spans, codec time is every attempt's
        last = subtree(obs.tracer.find("attempt")[-1])
        totals = stats.span_totals()
        for phase, reported in (("collect", stats.collect_time),
                                ("tx", stats.tx_time),
                                ("restore", stats.restore_time)):
            in_last = sum(s.seconds for s in last if s.name == phase)
            assert in_last == pytest.approx(reported, rel=0.01), phase
            if stats.attempts == 1:
                assert totals[phase] == in_last
            else:
                assert totals[phase] >= in_last
        assert totals["codec"] == pytest.approx(
            stats.codec_time, rel=1e-9, abs=1e-12)
        assert (stats.codec_time > 0) == (mode == "stream+compress")

        # MigrationStats == the event log == the counters
        events = obs.events
        assert len(events.of_type("attempt_begin")) == stats.attempts
        assert len(events.of_type("attempt_fail")) == stats.retries
        rounds = events.of_type("precopy_round")
        assert len(rounds) == stats.precopy_rounds
        assert (sum(r["bytes"] for r in rounds) == stats.precopy_bytes
                == counters.get("precopy.bytes", 0))
        assert len(rounds) == (4 if mode == "precopy" else 0)  # snapshot + 3 slices

        # the attribution table is the attempt that arrived, one table
        # in every mode (a failed attempt and the pre-copy rounds are in
        # the spans and events above): its byte column partitions the
        # payload the stats report, and each row is the kept columns
        attr = stats.attribution
        assert set(attr) == {"payload_bytes", "rows"}
        assert attr["payload_bytes"] == stats.payload_bytes
        assert sum(r["bytes"] for r in attr["rows"]) == stats.payload_bytes
        for row in attr["rows"]:
            assert set(row) == ATTRIBUTION_ROW_KEYS, row

        # observation on or off, the same bytes cross the channel
        plain, plain_wire, plain_stdout = migrate_in_mode(sliced_prog, mode, False)
        assert plain.attribution is None
        assert (plain_wire, plain_stdout) == (wire, stdout)


def test_report_counts_the_dirty_blocks_the_delta_rounds_shipped(
    sliced_prog, tmp_path
):
    """``obs report``'s pre-copy summary counts the dirty blocks the
    delta rounds shipped — ``stats.precopy_dirty_blocks`` — not what the
    stop-and-copy carried after them."""
    from repro.obs.report import load_trace, render_report

    stats, _wire, _stdout = migrate_in_mode(sliced_prog, "precopy", False)
    assert stats.precopy_dirty_blocks > 0
    stats.obs.write_trace(tmp_path / "trace.jsonl")
    # the mode's policy never converges (stop_dirty_blocks=0)
    (line,) = [
        ln for ln in render_report(load_trace(tmp_path / "trace.jsonl")).splitlines()
        if ln.startswith("stopped at the round cap")
    ]
    assert (
        f", {stats.precopy_dirty_blocks} dirty block(s) shipped in delta rounds, "
        in line
    )


@pytest.mark.parametrize("stop_dirty_blocks,says", [
    (0, "stopped at the round cap, 4 round(s): "),
    (2, "converged after 1 round(s): "),
], ids=["capped", "converged"])
def test_report_says_whether_the_precopy_converged(
    sliced_prog, tmp_path, stop_dirty_blocks, says
):
    """Each slice dirties two blocks (a ``table`` cell and the ring's
    head): a policy that stops at two converges after the snapshot, one
    that stops at none runs its three delta rounds and stops at the cap.
    ``obs report`` says which."""
    from repro.obs.report import load_trace, render_report

    _dest, stats = MigrationEngine().migrate(
        stopped(sliced_prog), SPARC20, precopy=True,
        precopy_policy=PrecopyPolicy(max_rounds=3, stop_dirty_blocks=stop_dirty_blocks),
    )
    stats.obs.write_trace(tmp_path / "trace.jsonl")
    (end,) = stats.obs.events.of_type("precopy_end")
    assert end["converged"] is (stop_dirty_blocks == 2)
    lines = render_report(load_trace(tmp_path / "trace.jsonl")).splitlines()
    assert [ln for ln in lines if ln.startswith(says)]


@pytest.mark.parametrize("mode", ["mono", "stream"])
def test_untraced_migrate_never_walks_its_span_tree(prog, mode, monkeypatch):
    """Observation off is bookkeeping off: nothing in ``migrate()`` —
    ``finish()`` included — iterates the spans it recorded; only a trace
    export does."""
    walks = []
    walk = Tracer.iter_spans
    monkeypatch.setattr(
        Tracer, "iter_spans", lambda self: walks.append(1) or walk(self))
    _, stats = MigrationEngine().migrate(stopped(prog), SPARC20, **MODES[mode][0])
    assert walks == []
    stats.obs.to_jsonl()
    assert walks == [1]


# -- cluster-level aggregation ------------------------------------------------


class TestClusterAggregation:
    def test_scheduler_rolls_up_metrics(self, prog, expected):
        """The cluster total is a sum over the records the scheduler
        returns, one per migration it conducted."""
        cluster = Cluster()
        a = cluster.add_host("a", DEC5000)
        b = cluster.add_host("b", SPARC20)
        cluster.connect(a, b, ETHERNET_100M)
        sched = Scheduler(cluster)
        proc = sched.spawn(prog, a)
        sched.request_migration(proc, b)
        result = sched.run(proc)
        assert result.stdout == expected
        (stats,) = result.migrations
        assert stats.counters()["engine.attempts"] == 1
        assert stats.counters()["engine.payload_bytes"] > 0


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_migrate_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.cli import main

        src_file = tmp_path / "prog.c"
        src_file.write_text(PROGRAM)
        trace = tmp_path / "trace.jsonl"
        rc = main(["migrate", str(src_file), "--stream", "--compress",
                   "--trace", str(trace), "--metrics-out", "-"])
        assert rc == 0
        assert validate_trace_file(trace) == []
        captured = capsys.readouterr()
        assert f"[trace written to {trace}]" in captured.err
        assert "engine.attempts = 1\n" in captured.out

    def test_validator_cli(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        proc = stopped(compile_program(PROGRAM, poll_strategy="user"))
        _, stats = MigrationEngine().migrate(proc, SPARC20)
        good = tmp_path / "good.jsonl"
        stats.obs.write_trace(good)
        assert validate_main([str(good)]) == 0
        assert "schema-valid" in capsys.readouterr().out

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "mystery", "ts": 0.0}\n')
        assert validate_main([str(bad)]) == 1
        assert validate_main([]) == 2

    def test_validator_cli_refuses_a_file_that_is_not_utf8(self, tmp_path, capsys):
        """Bytes that do not decode are an unreadable file: one line,
        exit 1, as an ``OSError`` is — not a ``UnicodeDecodeError``
        traceback."""
        from repro.obs.validate import main as validate_main

        binary = tmp_path / "b.jsonl"
        binary.write_bytes(b"\xff\xfe")
        capsys.readouterr()
        assert validate_main([str(binary)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{binary}: unreadable (")
