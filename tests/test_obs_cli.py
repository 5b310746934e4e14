"""Tests for the ``repro obs`` analysis CLI, the ``--metrics-out`` /
``--trace`` plumbing, and a hypothesis fuzz of the trace validator.

The validator contract under fuzz: corrupted, truncated, reordered, or
outright garbage input must come back as a *list of error strings* (or
a clean pass) — never a traceback.  The CLI contract: analysis commands
on malformed traces exit 2 with one ``repro: error:`` line on stderr.
"""

import functools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.events import validate_trace_lines
from repro.obs.report import (
    TraceReadError,
    load_trace,
    render_diff,
    render_report,
    render_top,
)
from repro.obs.validate import main as validate_main
from tests.conftest import cli_exit

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
def workspace(tmp_path_factory):
    """A directory holding one recorded trace (and the program file)."""
    ws = tmp_path_factory.mktemp("obs_cli")
    src = ws / "prog.c"
    src.write_text(PROGRAM)
    trace = ws / "trace.jsonl"
    # poll 345 lands after both init loops, so the heap ring exists
    rc = main(["migrate", str(src), "--after-polls", "345",
               "--stream", "--trace", str(trace)])
    assert rc == 0
    return ws


@pytest.fixture(scope="module")
def trace_path(workspace):
    return workspace / "trace.jsonl"


class TestObsReport:
    def test_report_renders_all_sections(self, trace_path, capsys):
        assert main(["obs", "report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        doc = load_trace(trace_path)
        assert f"trace {doc.trace_id}" in out
        assert "phases (all attempts):" in out
        assert "frame" in out
        assert "counters:" in out
        assert "engine.payload_bytes" in out

    def test_report_attribution_bytes_sum_to_payload(self, trace_path, capsys):
        """The acceptance criterion: the printed table's byte total IS
        the trace's payload-bytes metric (within 1%; here: exactly)."""
        main(["obs", "report", str(trace_path)])
        out = capsys.readouterr().out
        doc = load_trace(trace_path)
        payload = doc.counter("engine.payload_bytes")
        assert f"attribution ({payload} of {payload} payload bytes):" in out
        assert "(framing)" in out
        assert "struct node" in out

    def test_top_by_each_dimension(self, trace_path, capsys):
        for by, expect in (
            ("type", "double [300]"),
            ("block", "heap"),
            ("phase", "frame"),
        ):
            assert main(["obs", "top", str(trace_path), "--by", by]) == 0
            assert expect in capsys.readouterr().out

    def test_top_respects_n(self, trace_path, capsys):
        assert main(["obs", "top", str(trace_path), "--by", "type", "-n", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3  # header, rule, one row

    def test_diff_of_identical_traces_shows_zero_deltas(
        self, trace_path, capsys
    ):
        assert main(["obs", "diff", str(trace_path), str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"diff {trace_path} -> {trace_path}")
        assert "+0.000" in out

    def test_diff_of_different_traces_shows_counter_delta(
        self, workspace, trace_path, capsys
    ):
        other = workspace / "chunked.jsonl"
        rc = main(["migrate", str(workspace / "prog.c"), "--stream",
                   "--chunk-size", "512", "--trace", str(other)])
        assert rc == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(trace_path), str(other)]) == 0
        out = capsys.readouterr().out
        assert "engine.chunks" in out  # one chunk in A, several in B


class TestObsErrors:
    def test_missing_trace_exits_2(self, tmp_path, capsys):
        code, line = cli_exit(
            ["obs", "report", str(tmp_path / "absent.jsonl")], capsys
        )
        assert code == 2
        assert line.startswith("repro: error:")
        assert "cannot read trace" in line

    def test_not_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code, line = cli_exit(["obs", "report", str(bad)], capsys)
        assert code == 2 and "not valid JSON" in line

    def test_wrong_schema_exits_2(self, tmp_path, capsys):
        # 7 is the version before this one: its span lines carried a
        # thread name and it logged an event per chunk
        for schema in (1, 7):
            old = tmp_path / f"old{schema}.jsonl"
            old.write_text(json.dumps(
                {"event": "trace_header", "ts": 0.0, "schema": schema,
                 "tool": "repro", "trace_id": "00" * 8}
            ) + "\n")
            code, line = cli_exit(["obs", "report", str(old)], capsys)
            assert code == 2 and f"schema {schema} != 8" in line

    @pytest.mark.parametrize("command", [["report"], ["top"], ["top", "--by", "block"]])
    def test_a_trace_the_validator_refuses_is_refused(self, tmp_path, capsys, command):
        """What the report reads is exactly what the validator accepts:
        an attribution row whose bytes are a string is one line and exit
        2, not a TypeError from the arithmetic on it."""
        bad = tmp_path / "bad_row.jsonl"
        bad.write_text("\n".join(json.dumps(line) for line in (
            {"event": "trace_header", "ts": 0.0, "schema": 8, "tool": "repro",
             "trace_id": "00" * 8},
            {"event": "attribution", "ts": 0, "payload_bytes": 1,
             "rows": [{"type": "int", "bytes": "x"}]},
        )) + "\n")
        assert validate_trace_lines(bad.read_text()) != []
        code, line = cli_exit(["obs", *command[:1], str(bad), *command[1:]], capsys)
        assert code == 2
        assert "attribution row 0" in line

    def test_top_n_must_be_positive(self, trace_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "top", str(trace_path), "-n", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument -n: must be >= 1, got 0"
        )

    def test_load_trace_raises_typed_error_only(self, tmp_path):
        with pytest.raises(TraceReadError):
            load_trace(tmp_path / "absent.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n\n")
        with pytest.raises(TraceReadError, match="empty"):
            load_trace(empty)
        noheader = tmp_path / "noheader.jsonl"
        noheader.write_text('{"event": "span"}\n')
        with pytest.raises(TraceReadError, match="trace_header"):
            load_trace(noheader)


class TestMetricsFlags:
    def test_metrics_out_stdout(self, workspace, capsys):
        rc = main(["migrate", str(workspace / "prog.c"), "--metrics-out", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine.attempts = 1\n" in out

    def test_metrics_out_file(self, workspace, capsys):
        path = workspace / "metrics.txt"
        rc = main(["migrate", str(workspace / "prog.c"),
                   "--metrics-out", str(path)])
        assert rc == 0
        assert "engine.attempts = 1\n" in path.read_text()
        assert f"[metrics written to {path}]" in capsys.readouterr().err

    def test_the_two_printers_agree(self, workspace, capsys):
        """``--metrics-out -`` and the trace's ``metrics`` line render one
        record: the same names and values, on a streamed, compressed and
        retried run that shows the conditional counters too."""
        trace = workspace / "agree.jsonl"
        rc = main(["migrate", str(workspace / "prog.c"), "--after-polls", "345",
                   "--stream", "--chunk-size", "512", "--compress",
                   "--fault", "drop@2", "--retries", "2",
                   "--trace", str(trace), "--metrics-out", "-"])
        assert rc == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            name, sep, value = line.partition(" = ")
            if sep:
                printed[name] = int(value)
        (last,) = [json.loads(ln) for ln in trace.read_text().splitlines()[-1:]]
        assert last["event"] == "metrics"
        assert printed == last["counters"]
        assert {"codec.bytes_saved", "engine.aborted_bytes", "faults.drop"} <= set(printed)
        assert printed["engine.attempts"] == 2

    def test_trace_fails_loudly_without_observation(
        self, workspace, monkeypatch, capsys
    ):
        """A user who asked for a trace must never silently get none."""
        import repro.cli as cli_mod

        class NoObsEngine(cli_mod.MigrationEngine):
            def migrate(self, *a, **kw):
                dest, stats = super().migrate(*a, **kw)
                stats.obs = None
                return dest, stats

        monkeypatch.setattr(cli_mod, "MigrationEngine", NoObsEngine)
        with pytest.raises(SystemExit) as exc:
            main(["migrate", str(workspace / "prog.c"),
                  "--trace", str(workspace / "never.jsonl")])
        assert exc.value.code == 1
        assert "no observation" in capsys.readouterr().err.splitlines()[-1]
        assert not (workspace / "never.jsonl").exists()

    def test_metrics_fail_loudly_without_observation(
        self, workspace, monkeypatch, capsys
    ):
        import repro.cli as cli_mod

        class NoObsEngine(cli_mod.MigrationEngine):
            def migrate(self, *a, **kw):
                dest, stats = super().migrate(*a, **kw)
                stats.obs = None
                return dest, stats

        monkeypatch.setattr(cli_mod, "MigrationEngine", NoObsEngine)
        with pytest.raises(SystemExit) as exc:
            main(["migrate", str(workspace / "prog.c"), "--metrics-out", "-"])
        assert exc.value.code == 1
        assert "no observation" in capsys.readouterr().err.splitlines()[-1]


# -- validator fuzz -----------------------------------------------------------


@functools.lru_cache(maxsize=1)
def good_trace_text() -> str:
    """One known-good trace document, built in-process (no CLI)."""
    from repro.arch import DEC5000, SPARC20
    from repro.migration.engine import MigrationEngine
    from repro.vm.process import Process
    from repro.vm.program import compile_program

    proc = Process(compile_program(PROGRAM, poll_strategy="user"), DEC5000)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    _, stats = MigrationEngine().migrate(proc, SPARC20, attribution=True)
    text = stats.obs.to_jsonl()
    assert validate_trace_lines(text) == []
    return text


def assert_errors_typed(result):
    assert isinstance(result, list)
    assert all(isinstance(e, str) for e in result)


FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestValidatorFuzz:
    @FUZZ
    @given(st.integers(min_value=0, max_value=10**6))
    def test_truncation_never_raises(self, cut):
        text = good_trace_text()
        result = validate_trace_lines(text[: cut % (len(text) + 1)])
        assert_errors_typed(result)

    @FUZZ
    @given(st.randoms(use_true_random=False))
    def test_reordering_never_raises(self, rng):
        lines = good_trace_text().splitlines()
        rng.shuffle(lines)
        result = validate_trace_lines("\n".join(lines))
        assert_errors_typed(result)
        if lines and not lines[0].startswith('{"event": "trace_header"'):
            assert any("trace_header" in e for e in result)

    @FUZZ
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.characters(codec="ascii"),
    )
    def test_single_character_corruption_never_raises(self, pos, ch):
        text = good_trace_text()
        pos %= len(text)
        result = validate_trace_lines(text[:pos] + ch + text[pos + 1:])
        assert_errors_typed(result)

    @FUZZ
    @given(st.binary(max_size=400))
    def test_arbitrary_garbage_never_raises(self, blob):
        result = validate_trace_lines(blob.decode("latin-1"))
        assert_errors_typed(result)
        if blob.strip():
            assert result  # garbage is never schema-valid

    @FUZZ
    @given(st.integers(min_value=0, max_value=10**6))
    def test_dropped_line_never_raises(self, which):
        lines = good_trace_text().splitlines()
        del lines[which % len(lines)]
        result = validate_trace_lines("\n".join(lines))
        assert_errors_typed(result)

    @FUZZ
    @given(st.integers(min_value=0, max_value=10**6))
    def test_duplicated_line_never_raises(self, which):
        lines = good_trace_text().splitlines()
        dup = lines[which % len(lines)]
        lines.append(dup)
        result = validate_trace_lines("\n".join(lines))
        assert_errors_typed(result)
        if '"event": "span"' in dup:
            assert any("duplicate span_id" in e for e in result)
        if '"event": "trace_header"' in dup:
            assert any("trace_header" in e for e in result)

    def test_pristine_document_is_valid(self):
        assert validate_trace_lines(good_trace_text()) == []

    def test_validator_cli_on_corrupted_file(self, tmp_path, capsys):
        """End-to-end: the CLI prints errors and exits 1, no traceback."""
        text = good_trace_text()
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text(text[: len(text) // 2])
        assert validate_main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err
