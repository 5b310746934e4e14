"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's evaluation artifacts (see
DESIGN.md §4 and EXPERIMENTS.md).  Problem sizes default to a scaled-down
sweep so the full suite runs in minutes on the pure-Python substrate; set
``REPRO_BENCH_FULL=1`` to use the paper's exact sizes (linpack up to
1000×1000 ≈ 8 MB, bitonic up to 50 000 nodes — expect tens of minutes).
"""

from __future__ import annotations

import os
from typing import Optional

import pytest

from repro.arch import DEC5000, SPARC20, ULTRA5
from repro.migration.engine import collect_state, restore_state
from repro.migration.transport import Channel, ETHERNET_100M, ETHERNET_10M
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import bitonic_source, linpack_source

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: Figure 2(a) sweep — matrix orders (paper: 500..1000).  The scaled
#: default spans 130 KB – 2 MB so the linear regime is visible above the
#: per-migration fixed cost (the bulk XDR path makes tiny matrices free).
LINPACK_SIZES = (500, 600, 700, 800, 900, 1000) if FULL else (128, 224, 320, 416, 512)
#: Figure 2(b) sweep — numbers sorted (paper: up to ~50000)
BITONIC_SIZES = (10000, 20000, 30000, 40000, 50000) if FULL else (1000, 2000, 4000, 6000, 8000)
#: Table 1 sizes (paper: linpack 1000x1000, bitonic)
TABLE1_LINPACK_N = 1000 if FULL else 320
TABLE1_BITONIC_N = 50000 if FULL else 12000

_cache: dict = {}


def stopped_linpack(n: int, arch=ULTRA5) -> Process:
    """A linpack process stopped at the first dgefa poll (matrices live)."""
    key = ("linpack", n, arch.name)
    proc = _cache.get(key)
    if proc is None:
        prog = compile_program(linpack_source(n), poll_strategy="user")
        proc = Process(prog, arch)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 1
        result = proc.run()
        assert result.status == "poll"
        _cache[key] = proc
    return proc


def stopped_bitonic(n: int, arch=ULTRA5) -> Process:
    """A bitonic process stopped after its full tree is built."""
    key = ("bitonic", n, arch.name)
    proc = _cache.get(key)
    if proc is None:
        prog = compile_program(bitonic_source(n), poll_strategy="user")
        proc = Process(prog, arch)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = n  # the poll after the last insert
        result = proc.run()
        assert result.status == "poll"
        _cache[key] = proc
    return proc


def collect_once(proc: Process) -> tuple[bytes, object]:
    """One repeatable collection pass (idempotent on the process)."""
    return collect_state(proc)


def fresh_restore(proc: Process, payload: bytes, dest_arch=ULTRA5):
    """Restore *payload* into a brand-new destination process."""
    dest = Process(proc.program, dest_arch)
    return restore_state(proc.program, payload, dest)


def time_restore(benchmark, proc: Process, payload: bytes, dest_arch=ULTRA5,
                 **pedantic) -> None:
    """Time Restore of *payload* alone: each round's destination is
    built in ``setup``, outside the timed call, as the paper's
    destination "is invoked before the migration and waits"."""
    benchmark.pedantic(
        lambda dest: restore_state(proc.program, payload, dest),
        setup=lambda: ((Process(proc.program, dest_arch),), {}),
        iterations=1,
        **pedantic,
    )


_REPORT_ROWS: list[str] = []
#: the committed record of a full run, which a partial run leaves alone
ROWS_PATH = os.path.join(os.path.dirname(__file__), "paper_rows.txt")
#: every bench module of the harness: a run is full when each had a
#: test pass
BENCH_MODULES = frozenset(
    name for name in os.listdir(os.path.dirname(__file__))
    if name.startswith("bench_") and name.endswith(".py")
)
#: the bench modules that had a test pass in this session
_PASSED_MODULES: set[str] = set()


@pytest.fixture(scope="session")
def report():
    """Accumulates paper-style rows; printed in the terminal summary and,
    after a full run, persisted to ``benchmarks/paper_rows.txt``."""
    return _REPORT_ROWS.append


def pytest_runtest_logreport(report):
    if report.when == "call" and report.passed:
        _PASSED_MODULES.add(os.path.basename(report.nodeid.split("::")[0]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT_ROWS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 72)
    terminalreporter.write_line("paper-artifact rows (see EXPERIMENTS.md)")
    terminalreporter.write_line("=" * 72)
    for line in _REPORT_ROWS:
        terminalreporter.write_line(line)
    missing = sorted(BENCH_MODULES - _PASSED_MODULES)
    if missing:
        # a subset's rows would replace the whole record
        terminalreporter.write_line(
            f"(partial run, rows not saved to {ROWS_PATH}: nothing passed in "
            f"{', '.join(missing)})"
        )
        return
    try:
        with open(ROWS_PATH, "w") as fh:
            fh.write("\n".join(_REPORT_ROWS) + "\n")
        terminalreporter.write_line(f"(rows saved to {ROWS_PATH})")
    except OSError:
        pass
