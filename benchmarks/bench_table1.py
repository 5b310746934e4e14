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
"""

import pytest

from repro.arch import ULTRA5
from repro.migration.transport import ETHERNET_100M

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
