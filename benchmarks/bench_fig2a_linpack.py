"""Figure 2(a) — linpack collect & restore time vs migrated data size.

Paper: matrices 500², 600², …, 1000² (≈2–8 MB of doubles) between two
Ultra 5 workstations.  Claims to reproduce:

- both curves are **linear** in Σ Dᵢ (the bulk XDR encode/copy dominates;
  the number of MSR nodes is constant, so MSRLT search/update cost is a
  constant term);
- the gap between collection and restoration is **roughly constant**
  across sizes.

The benchmark table's one-row-per-size is the figure's series; byte sizes
are attached as ``extra_info`` and echoed in the report rows.
"""

import gc

import pytest

from benchmarks.conftest import LINPACK_SIZES, collect_once, stopped_linpack, time_restore


@pytest.mark.benchmark(group="fig2a-collect")
@pytest.mark.parametrize("n", LINPACK_SIZES)
def test_fig2a_collect(benchmark, report, n):
    proc = stopped_linpack(n)
    payload, cinfo = collect_once(proc)
    benchmark.pedantic(
        lambda: collect_once(proc), rounds=7, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["data_bytes"] = cinfo.stats.data_bytes
    benchmark.extra_info["wire_bytes"] = len(payload)
    benchmark.extra_info["n_blocks"] = cinfo.stats.n_blocks
    report(
        f"Fig2a/collect N={n}: data={cinfo.stats.data_bytes}B "
        f"blocks={cinfo.stats.n_blocks} min={benchmark.stats.stats.min * 1e3:.3f}ms"
    )


@pytest.mark.benchmark(group="fig2a-restore")
@pytest.mark.parametrize("n", LINPACK_SIZES)
def test_fig2a_restore(benchmark, report, n):
    proc = stopped_linpack(n)
    payload, cinfo = collect_once(proc)
    gc.collect()  # suite-wide garbage would otherwise pollute the minima
    time_restore(benchmark, proc, payload, rounds=5, warmup_rounds=1)
    benchmark.extra_info["data_bytes"] = cinfo.stats.data_bytes
    report(
        f"Fig2a/restore N={n}: data={cinfo.stats.data_bytes}B "
        f"min={benchmark.stats.stats.min * 1e3:.3f}ms"
    )


@pytest.mark.benchmark(group="fig2a-shape")
def test_fig2a_constant_node_count(benchmark, report):
    """§4.2: "the number of MSR nodes does not increase when the problem
    size scales up" — node count is identical across the sweep."""
    counts = set()
    for n in LINPACK_SIZES:
        _, cinfo = collect_once(stopped_linpack(n))
        counts.add(cinfo.stats.n_blocks)
    assert len(counts) == 1, f"MSR node count varied: {counts}"
    benchmark(lambda: None)
    report(f"Fig2a/shape: constant MSR node count = {counts.pop()} for all N")
