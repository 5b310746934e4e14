"""Table 1 — homogeneous migration timings (Ultra 5 → Ultra 5, 100 Mb/s).

Paper values (seconds):

    Programs          Collect   Tx      Restore
    Linpack 1000x1000  0.2498   0.6523  0.2287
    bitonic            0.3239   0.3171  0.4274

We reproduce the three columns for both programs at scaled default sizes
(set ``REPRO_BENCH_FULL=1`` for the paper's exact sizes).  Absolute
values differ (Python substrate vs 1999 workstations); the shape claims
are: Tx dominated by payload size over the 100 Mb/s link; linpack
Collect slightly above Restore (both dominated by encode/copy); bitonic
Restore above its Collect-per-byte share because of per-block allocation
(§4.2 discussion).

The ratio Restore / Collect is measured apart from the three columns
(:class:`TestTable1Ratio`): the two phases timed back to back, round by
round, in one test, and reported as the median ratio with its quartiles
— a minimum over rounds of two separately timed tests drifts from
session to session.
"""

import statistics
import time

import pytest

from repro.arch import ULTRA5
from repro.migration.engine import restore_state
from repro.migration.transport import ETHERNET_100M
from repro.vm.process import Process

from benchmarks.conftest import (
    TABLE1_BITONIC_N,
    TABLE1_LINPACK_N,
    collect_once,
    time_restore,
    stopped_bitonic,
    stopped_linpack,
)


def _measure_row(benchmark, proc, phase: str, report, label: str):
    payload, cinfo = collect_once(proc)

    if phase == "collect":
        benchmark(lambda: collect_once(proc))
    elif phase == "restore":
        time_restore(benchmark, proc, payload, rounds=5)
    else:  # tx — modeled, constant
        benchmark(lambda: ETHERNET_100M.transfer_time(len(payload)))

    tx = ETHERNET_100M.transfer_time(len(payload))
    benchmark.extra_info["payload_bytes"] = len(payload)
    benchmark.extra_info["n_blocks"] = cinfo.stats.n_blocks
    benchmark.extra_info["modeled_tx_s"] = tx
    report(
        f"Table1/{label}/{phase}: payload={len(payload)}B "
        f"blocks={cinfo.stats.n_blocks} modeled_tx={tx * 1e3:.2f}ms"
    )


@pytest.mark.benchmark(group="table1-linpack")
class TestTable1Linpack:
    def test_collect(self, benchmark, report):
        proc = stopped_linpack(TABLE1_LINPACK_N)
        _measure_row(benchmark, proc, "collect", report, f"linpack-{TABLE1_LINPACK_N}")

    def test_tx(self, benchmark, report):
        proc = stopped_linpack(TABLE1_LINPACK_N)
        _measure_row(benchmark, proc, "tx", report, f"linpack-{TABLE1_LINPACK_N}")

    def test_restore(self, benchmark, report):
        proc = stopped_linpack(TABLE1_LINPACK_N)
        _measure_row(benchmark, proc, "restore", report, f"linpack-{TABLE1_LINPACK_N}")


@pytest.mark.benchmark(group="table1-bitonic")
class TestTable1Bitonic:
    def test_collect(self, benchmark, report):
        proc = stopped_bitonic(TABLE1_BITONIC_N)
        _measure_row(benchmark, proc, "collect", report, f"bitonic-{TABLE1_BITONIC_N}")

    def test_tx(self, benchmark, report):
        proc = stopped_bitonic(TABLE1_BITONIC_N)
        _measure_row(benchmark, proc, "tx", report, f"bitonic-{TABLE1_BITONIC_N}")

    def test_restore(self, benchmark, report):
        proc = stopped_bitonic(TABLE1_BITONIC_N)
        _measure_row(benchmark, proc, "restore", report, f"bitonic-{TABLE1_BITONIC_N}")


#: interleaved Collect / Restore rounds behind one ratio
RATIO_ROUNDS = 15
#: the paper's Table 1 Restore / Collect
PAPER_RATIO = {"linpack": 0.2287 / 0.2498, "bitonic": 0.4274 / 0.3239}


def interleaved_ratio(proc, rounds: int = RATIO_ROUNDS) -> dict:
    """Collect and Restore of *proc*'s state timed back to back, round by
    round, so both phases see the same machine state; each round's
    destination is built between the two, untimed (the paper's
    destination "is invoked before the migration and waits").  Returns
    the medians of both phases and the quartiles of the per-round
    Restore / Collect ratios."""
    program = proc.program
    payload, _ = collect_once(proc)
    collects, restores, ratios = [], [], []
    for _ in range(rounds):
        start = time.perf_counter()
        collect_once(proc)
        collect = time.perf_counter() - start
        dest = Process(program, ULTRA5)
        start = time.perf_counter()
        restore_state(program, payload, dest)
        restore = time.perf_counter() - start
        collects.append(collect)
        restores.append(restore)
        ratios.append(restore / collect)
    return {
        "collect_s": statistics.median(collects),
        "restore_s": statistics.median(restores),
        "ratio_quartiles": statistics.quantiles(ratios, n=4),
    }


@pytest.mark.benchmark(group="table1-ratio")
class TestTable1Ratio:
    @pytest.mark.parametrize("program", ["linpack", "bitonic"])
    def test_restore_over_collect(self, benchmark, report, program):
        if program == "linpack":
            proc, label = stopped_linpack(TABLE1_LINPACK_N), f"linpack-{TABLE1_LINPACK_N}"
        else:
            proc, label = stopped_bitonic(TABLE1_BITONIC_N), f"bitonic-{TABLE1_BITONIC_N}"
        got = benchmark.pedantic(interleaved_ratio, args=(proc,), rounds=1, iterations=1)
        q1, median, q3 = got["ratio_quartiles"]
        benchmark.extra_info.update(got)
        report(
            f"Table1/{label}/restore-over-collect: {median:.2f}x "
            f"(quartiles {q1:.2f}-{q3:.2f}, {RATIO_ROUNDS} interleaved rounds; "
            f"Collect {got['collect_s'] * 1e3:.2f} ms, Restore "
            f"{got['restore_s'] * 1e3:.2f} ms; paper {PAPER_RATIO[program]:.2f}x)"
        )
        if program == "bitonic":
            # the paper's shape: a restored node is allocated, a
            # collected one only looked up
            assert median > 1.0
