"""Benchmark: monolithic vs streamed (pipelined) migration response time.

The paper's prototype serializes Collect → Tx → Restore, so its response
time is the sum (Table 1).  The streaming engine overlaps the stages at
chunk granularity; this benchmark measures both disciplines on the same
stopped process for linpack and bitonic sweeps over the modeled
10 Mb/s Ethernet (the paper's heterogeneous testbed link, where Tx
dominates and overlap pays the most).

Usage::

    python benchmarks/bench_pipeline.py --smoke     # one size each, fast
    python benchmarks/bench_pipeline.py             # full sweep

Results are printed as a table and merged into ``BENCH_PR1.json`` at the
repo root (section ``"pipeline"``) so the perf trajectory is tracked
across PRs.  This is a standalone script, not a pytest-benchmark module:
the interesting number is a modeled+measured hybrid (wall-clock collect
and restore, modeled wire), so statistical repetition machinery buys
little over a direct comparison.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT / "src"), str(_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.arch import SPARC20, ULTRA5  # noqa: E402
from repro.migration.engine import (  # noqa: E402
    DEFAULT_CHUNK_SIZE,
    MigrationEngine,
)
from repro.migration.transport import Channel, ETHERNET_10M  # noqa: E402
from repro.vm.process import Process  # noqa: E402
from repro.vm.program import compile_program  # noqa: E402
from repro.workloads import bitonic_source, linpack_source  # noqa: E402

from benchmarks.results import update_bench_json  # noqa: E402

#: full-sweep sizes (matching benchmarks/conftest.py's scaled defaults)
LINPACK_SIZES = (128, 224, 320, 416, 512)
BITONIC_SIZES = (1000, 2000, 4000, 8000)
#: smoke sizes: the acceptance case (linpack N >= 200) plus one bitonic
#: past the single-chunk crossover (see docs/INTERNALS.md §9): a tree
#: node is 12 wire bytes, so a default chunk holds 5 461 of them
SMOKE_LINPACK = (256,)
SMOKE_BITONIC = (8000,)


def _stopped(workload: str, n: int) -> Process:
    if workload == "linpack":
        prog = compile_program(linpack_source(n), poll_strategy="user")
        polls = 1
    else:
        prog = compile_program(bitonic_source(n), poll_strategy="user")
        polls = n  # the poll after the last tree insert
    proc = Process(prog, ULTRA5)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = polls
    result = proc.run()
    assert result.status == "poll", f"{workload}({n}) never reached its poll"
    return proc


def measure_pair(workload: str, n: int, link, chunk_size: int) -> dict:
    """Measure both disciplines as a *paired* comparison on one migration.

    One streamed migration runs for real; its measured collect/restore
    wall times and modeled tx feed both response models.  The byte work
    of the two disciplines is identical (the chunk payloads concatenate
    to the monolithic payload), so re-measuring collect/restore in a
    separate serial pass would only add wall-clock noise to a comparison
    whose entire difference is the transfer discipline:

        monolithic = Collect + transfer_time(payload) + Restore
        streamed   = pipeline(Collect, pipelined tx of framed bytes, Restore)
    """
    proc = _stopped(workload, n)

    channel = Channel(link)
    _, stats = MigrationEngine().migrate(
        proc, SPARC20, channel=channel, streaming=True, chunk_size=chunk_size
    )

    mono_tx = link.transfer_time(stats.payload_bytes)
    mono_response = stats.collect_time + mono_tx + stats.restore_time

    return {
        "workload": workload,
        "n": n,
        "payload_bytes": stats.payload_bytes,
        "link": link.name,
        "chunk_size": chunk_size,
        "n_chunks": stats.n_chunks,
        "monolithic_s": mono_response,
        "mono_tx_s": mono_tx,
        "streamed_s": stats.response_time,
        "collect_s": stats.collect_time,
        "streamed_tx_s": stats.tx_time,
        "restore_s": stats.restore_time,
        "overlap_ratio": 1.0 - stats.response_time / mono_response
        if mono_response > 0
        else 0.0,
        "speedup": mono_response / stats.response_time
        if stats.response_time > 0
        else float("inf"),
    }


def run(argv=None) -> list[dict]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one fast size per workload (CI mode)")
    parser.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    parser.add_argument("--out", default=None,
                        help="bench JSON path (default: BENCH_PR1.json at repo root)")
    args = parser.parse_args(argv)

    link = ETHERNET_10M
    linpack_sizes = SMOKE_LINPACK if args.smoke else LINPACK_SIZES
    bitonic_sizes = SMOKE_BITONIC if args.smoke else BITONIC_SIZES

    rows: list[dict] = []
    for workload, sizes in (("linpack", linpack_sizes), ("bitonic", bitonic_sizes)):
        for n in sizes:
            row = measure_pair(workload, n, link, args.chunk_size)
            rows.append(row)
            print(
                f"{workload:8s} n={n:<6d} {row['payload_bytes']:>9d} B "
                f"{row['n_chunks']:>3d} chunks | "
                f"mono {row['monolithic_s'] * 1e3:8.2f} ms | "
                f"streamed {row['streamed_s'] * 1e3:8.2f} ms | "
                f"overlap {row['overlap_ratio']:6.1%} | "
                f"speedup {row['speedup']:.3f}x"
            )

    payload = {
        "link": link.name,
        "chunk_size": args.chunk_size,
        "mode": "smoke" if args.smoke else "full",
        "rows": rows,
    }
    path = update_bench_json("pipeline", payload, args.out)
    print(f"(results merged into {path})")
    return rows


def main(argv=None) -> int:
    rows = run(argv)
    # a payload that fits in one chunk degenerates to monolithic plus
    # framing overhead — not winning there is expected, so only rows
    # that actually pipelined gate the exit code
    slower = [
        r for r in rows
        if r["n_chunks"] >= 2 and r["streamed_s"] >= r["monolithic_s"]
    ]
    for r in slower:
        print(
            f"WARNING: streaming did not win on {r['workload']} n={r['n']} "
            f"({r['streamed_s']:.4f}s vs {r['monolithic_s']:.4f}s)",
            file=sys.stderr,
        )
    return 1 if slower else 0


if __name__ == "__main__":
    raise SystemExit(main())
