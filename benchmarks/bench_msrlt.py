"""E5 — MSRLT micro-benchmarks: the §4.2 complexity model in isolation.

- ``MSRLT_search`` (collection): binary search over block start
  addresses — O(log n) per lookup; an ablation compares against the
  naive linear scan a table-less design would need.
- ``MSRLT_update`` (restoration): dict insert per block — O(1) per
  block, O(n) total.
- ``Encode_and_Copy``: one flat block through its cast plan — O(Σ Dᵢ),
  independent of n.
"""

import random

import pytest

from repro.arch import DEC5000, ULTRA5, WriteBuffer, xdr
from repro.clang.ctypes import DOUBLE, INT, TypeLayout
from repro.msr.collect import Collector
from repro.msr.graphplan import CastPlan
from repro.msr.msrlt import MSRLT
from repro.vm.memory import Memory, host_kinds
from repro.vm.process import Process
from repro.vm.program import compile_program

SIZES = (1_000, 10_000, 50_000)


def build_table(n: int) -> tuple[MSRLT, list[int]]:
    msrlt = MSRLT(TypeLayout(ULTRA5))
    base = ULTRA5.heap_base
    addrs = [base + 16 * i for i in range(n)]
    for a in addrs:
        msrlt.register_heap(a, INT, 2)
    return msrlt, addrs


@pytest.mark.benchmark(group="msrlt-search")
@pytest.mark.parametrize("n", SIZES)
def test_search_binary(benchmark, n):
    """O(log n) per lookup — time per batch grows ~log n, not ~n."""
    msrlt, addrs = build_table(n)
    rng = random.Random(7)
    probes = [rng.choice(addrs) + rng.choice((0, 4)) for _ in range(1000)]

    def lookup_batch():
        for p in probes:
            msrlt.lookup_addr(p)

    benchmark(lookup_batch)
    benchmark.extra_info["n_blocks"] = n


@pytest.mark.benchmark(group="msrlt-search-ablation")
@pytest.mark.parametrize("n", (1_000, 10_000))
def test_search_linear_scan_ablation(benchmark, n):
    """Ablation: the linear scan a design without the sorted MSRLT would
    pay — O(n) per lookup, visibly catastrophic next to the bisect rows."""
    msrlt, addrs = build_table(n)
    blocks = msrlt.blocks()
    rng = random.Random(7)
    probes = [rng.choice(addrs) for _ in range(100)]

    def lookup_batch():
        for p in probes:
            for b in blocks:
                if b.addr <= p < b.end:
                    break

    benchmark(lookup_batch)
    benchmark.extra_info["n_blocks"] = n


@pytest.mark.benchmark(group="msrlt-update")
@pytest.mark.parametrize("n", SIZES)
def test_update_registration(benchmark, n):
    """O(1) amortized per registration (bump-order fast path)."""
    layout = TypeLayout(ULTRA5)
    base = ULTRA5.heap_base

    def register_all():
        msrlt = MSRLT(layout)
        for i in range(n):
            msrlt.register_heap(base + 16 * i, INT, 2)
        return msrlt

    benchmark.pedantic(register_all, rounds=3, iterations=1)
    benchmark.extra_info["n_blocks"] = n


@pytest.mark.benchmark(group="encode-copy")
@pytest.mark.parametrize("nbytes", (80_000, 800_000, 8_000_000))
def test_encode_and_copy(benchmark, nbytes):
    """O(Σ Dᵢ): collecting one big ``double`` block, which its CastPlan
    converts little- to big-endian in one NumPy cast (8 MB is Figure
    2(a)'s top size)."""
    import numpy as np

    n = nbytes // 8
    prog = compile_program(
        f"double data[{n}];\nint main() {{ migrate_here(); return 0; }}\n",
        poll_strategy="user",
    )
    proc = Process(prog, DEC5000)
    proc.load()
    (block,) = [b for b in proc.msrlt.blocks() if b.name == "data"]
    host = host_kinds(DEC5000).dtypes["double"]
    np.frombuffer(proc.memory.write_view(block.addr, block.size), host)[...] = np.linspace(0, 1, n)
    plan = proc.ti.plan_for(proc.ti.info_for(block.elem_type))
    assert isinstance(plan, CastPlan) and not plan.raw

    def encode():
        buf = WriteBuffer()
        Collector(proc, buf).save_variable(block)
        return buf

    assert benchmark(encode).nbytes > nbytes
    benchmark.extra_info["bytes"] = nbytes


@pytest.mark.benchmark(group="encode-copy-ablation")
@pytest.mark.parametrize("nbytes", (80_000,))
def test_encode_scalar_ablation(benchmark, nbytes):
    """Ablation: the per-element scalar codec on the same data — the
    cost a non-vectorized TI saving function would pay."""
    mem = Memory(ULTRA5)
    n = nbytes // 8
    addr = mem.heap_alloc(nbytes)

    def encode():
        out = bytearray()
        for i in range(n):
            out += xdr.encode("double", mem.load("double", addr + 8 * i))
        return bytes(out)

    benchmark.pedantic(encode, rounds=3, iterations=1)
    benchmark.extra_info["bytes"] = nbytes
