"""Figure 2(b) — bitonic collect & restore time vs number sorted.

Paper: as the input scales, both the node count n and Σ Dᵢ grow, so
(§4.2) "the effect of MSRLT search time (O(n log n)) contributes
noticeable higher collection time than that of the MSRLT update time
(O(n)) for data restoration, when the number of data to be sorted scales
up".

Claims to reproduce:

- both curves grow with n, super-linearly on the collection side;
- the *search* work (O(n log n) — measured exactly via the MSRLT's
  operation counters, which are hardware-independent) grows faster than
  the *update* work (O(n) heap registrations on the destination).
"""

import math

import gc

import pytest

from benchmarks.conftest import (
    BITONIC_SIZES,
    collect_once,
    fresh_restore,
    stopped_bitonic,
    time_restore,
)


@pytest.mark.benchmark(group="fig2b-collect")
@pytest.mark.parametrize("n", BITONIC_SIZES)
def test_fig2b_collect(benchmark, report, n):
    proc = stopped_bitonic(n)
    payload, cinfo = collect_once(proc)
    gc.collect()
    benchmark.pedantic(
        lambda: collect_once(proc), rounds=4, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["n_sorted"] = n
    benchmark.extra_info["n_blocks"] = cinfo.stats.n_blocks
    benchmark.extra_info["data_bytes"] = cinfo.stats.data_bytes
    report(
        f"Fig2b/collect n={n}: blocks={cinfo.stats.n_blocks} "
        f"data={cinfo.stats.data_bytes}B min={benchmark.stats.stats.min * 1e3:.1f}ms"
    )


@pytest.mark.benchmark(group="fig2b-restore")
@pytest.mark.parametrize("n", BITONIC_SIZES)
def test_fig2b_restore(benchmark, report, n):
    proc = stopped_bitonic(n)
    payload, cinfo = collect_once(proc)
    gc.collect()  # suite-wide garbage would otherwise pollute the minima
    time_restore(benchmark, proc, payload, rounds=4, warmup_rounds=1)
    benchmark.extra_info["n_sorted"] = n
    report(
        f"Fig2b/restore n={n}: blocks={cinfo.stats.n_blocks} "
        f"min={benchmark.stats.stats.min * 1e3:.1f}ms"
    )


@pytest.mark.benchmark(group="fig2b-shape")
def test_fig2b_search_vs_update_counts(benchmark, report):
    """The §4.2 complexity split, in deterministic operation counts:
    collection performs one MSRLT *search* per non-null pointer (≈ one
    per tree edge, so ≈ n of them, each O(log n) ⇒ O(n log n) total);
    restoration performs one O(1) *update* (heap registration) per block
    (O(n) total).  Both counts scale linearly with n; the asymptotic gap
    is the per-operation log-factor on the collection side."""
    rows = []
    for n in BITONIC_SIZES[:3]:
        proc = stopped_bitonic(n)
        before = proc.msrlt.n_searches
        payload, cinfo = collect_once(proc)
        searches = proc.msrlt.n_searches - before
        rinfo = fresh_restore(proc, payload)
        updates = rinfo.stats.n_heap_allocs
        rows.append((n, searches, updates))
        # one search per tree edge (n-1) plus the handful of root/live
        # pointers; one update per tree node
        assert 0.8 * n <= searches <= 1.5 * n + 50
        assert updates == n
    # linear growth of both counts across the sweep
    (n0, s0, _), (n1, s1, _) = rows[0], rows[-1]
    assert s1 / s0 == pytest.approx(n1 / n0, rel=0.25)
    report("Fig2b/shape: n, MSRLT searches (collect, O(log n) each), "
           "updates (restore, O(1) each)")
    for n, s, u in rows:
        report(
            f"  n={n}: searches={s} x O(log2 n={math.log2(n):.1f}) "
            f"vs updates={u} x O(1)"
        )
    benchmark(lambda: None)
