"""The paper benchmarks' committed record: ``benchmarks/paper_rows.txt``
holds the rows of a full ``pytest benchmarks/ --benchmark-only`` run, and
a run of a subset (``-k``, one file) prints its rows without replacing
the record with them."""

from pathlib import Path
from types import SimpleNamespace

from benchmarks import conftest as bench


class Reporter:
    """The terminal reporter's one method the summary hook calls."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def write_line(self, line: str) -> None:
        self.lines.append(line)


def passed(*modules) -> None:
    """Feed the harness one passing test call per bench module."""
    for module in modules:
        bench.pytest_runtest_logreport(
            SimpleNamespace(when="call", passed=True, nodeid=f"benchmarks/{module}::test_x")
        )


def test_a_partial_run_leaves_the_committed_rows_alone(monkeypatch):
    path = Path(bench.ROWS_PATH)
    before = path.read_bytes()
    monkeypatch.setattr(bench, "_REPORT_ROWS", ["Table1/ratio linpack 0.55 bitonic 1.40"])
    monkeypatch.setattr(bench, "_PASSED_MODULES", set())
    passed("bench_table1.py")
    reporter = Reporter()
    try:
        bench.pytest_terminal_summary(reporter, 0, None)
        assert path.read_bytes() == before
    finally:
        if path.read_bytes() != before:
            path.write_bytes(before)
    assert "Table1/ratio linpack 0.55 bitonic 1.40" in reporter.lines
    assert reporter.lines[-1].startswith("(partial run, rows not saved to ")
    assert "bench_msrlt.py" in reporter.lines[-1]
    assert "bench_table1.py" not in reporter.lines[-1]


def test_a_full_run_saves_its_rows(monkeypatch, tmp_path):
    rows = tmp_path / "paper_rows.txt"
    monkeypatch.setattr(bench, "ROWS_PATH", str(rows))
    monkeypatch.setattr(bench, "_REPORT_ROWS", ["E1 row", "E2 row"])
    monkeypatch.setattr(bench, "_PASSED_MODULES", set())
    passed(*sorted(bench.BENCH_MODULES))
    reporter = Reporter()
    bench.pytest_terminal_summary(reporter, 0, None)
    assert rows.read_text() == "E1 row\nE2 row\n"
    assert reporter.lines[-1] == f"(rows saved to {rows})"

