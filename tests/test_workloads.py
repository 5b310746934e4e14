"""E1: the paper's three workloads run and migrate heterogeneously.

test_pointer, linpack, and the bitonic tree sort are the exact programs
§4.1 evaluates; we run each to completion natively, then once with a
DEC 5000 → SPARC 20 migration in the middle, and require identical output
(the paper's correctness criterion).
"""

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20
from repro.migration import Cluster, ETHERNET_10M, Scheduler
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import bitonic_source, linpack_source, matmul_source, nbody_source
from repro.workloads import test_pointer_source as pointer_workload_source


def baseline(prog, arch=DEC5000):
    proc = Process(prog, arch)
    proc.run_to_completion()
    return proc


def migrated(prog, after_polls, src=DEC5000, dst=SPARC20):
    cluster = Cluster()
    a = cluster.add_host("a", src)
    b = cluster.add_host("b", dst)
    cluster.connect(a, b, ETHERNET_10M)
    sched = Scheduler(cluster)
    proc = sched.spawn(prog, a)
    sched.request_migration(proc, b, after_polls=after_polls)
    return sched.run(proc)


class TestTestPointer:
    @pytest.fixture(scope="class")
    def prog(self):
        return compile_program(pointer_workload_source(), poll_strategy="user")

    def test_runs_natively(self, prog):
        proc = baseline(prog)
        assert "checksum=" in proc.stdout
        assert "shared=5" in proc.stdout
        assert "cyc=1" in proc.stdout

    def test_same_output_on_both_paper_hosts(self, prog):
        assert baseline(prog, DEC5000).stdout == baseline(prog, SPARC20).stdout

    def test_migrates_mid_tree_build(self, prog):
        base = baseline(prog)
        res = migrated(prog, after_polls=30)
        assert res.stdout == base.stdout

    def test_migrates_after_all_structures_built(self, prog):
        base = baseline(prog)
        res = migrated(prog, after_polls=65)  # the final migrate_here()
        assert res.stdout == base.stdout
        st = res.migrations[0]
        # tree (<=64 distinct values) + pi + parr + pptrs + 10 cells + 2 dag
        assert st.n_blocks > 50

    def test_no_duplication_of_shared_nodes(self, prog):
        """§4.1: "despite multiple references to MSR's significant nodes,
        all memory blocks and pointers are collected and restored without
        duplication"."""
        res = migrated(prog, after_polls=65)
        assert res.stdout == baseline(prog).stdout  # "shared=5", "cyc=1"
        st = res.migrations[0]
        # every block shipped is restored once, and a heap block is
        # carved once however many pointers reach it
        assert st.restore.n_blocks == st.collect.n_blocks
        assert st.restore.n_heap_allocs < st.n_blocks


class TestLinpack:
    @pytest.fixture(scope="class")
    def prog(self):
        return compile_program(linpack_source(24), poll_strategy="user")

    def test_solves_correctly(self, prog):
        proc = baseline(prog)
        assert "ok=1" in proc.stdout
        assert "info=0" in proc.stdout

    def test_residual_identical_across_archs(self, prog):
        """Bit-exact floating point on every host."""
        outs = {a.name: baseline(prog, a).stdout for a in (DEC5000, SPARC20, ALPHA)}
        assert len(set(outs.values())) == 1, outs

    def test_migrates_mid_factorization(self, prog):
        base = baseline(prog)
        res = migrated(prog, after_polls=7)
        assert res.stdout == base.stdout
        assert "ok=1" in res.stdout

    def test_few_large_blocks(self, prog):
        """§4.2: linpack has "a small number of MSR nodes; yet, each node
        occupies substantial amount of memory space"."""
        res = migrated(prog, after_polls=7)
        st = res.migrations[0]
        assert st.n_blocks < 30
        assert st.data_bytes > 24 * 24 * 8  # the matrix dominates

    def test_floating_point_accuracy_preserved(self, prog):
        """§4.1: "large floating-point data are correctly transferred.
        The data collection and restoration process preserves the
        high-order floating point accuracy." — same residual digits."""
        base = baseline(prog)
        res = migrated(prog, after_polls=3)
        assert res.stdout == base.stdout  # every printed digit identical


class TestBitonic:
    @pytest.fixture(scope="class")
    def prog(self):
        return compile_program(bitonic_source(400), poll_strategy="user")

    def test_sorts(self, prog):
        proc = baseline(prog)
        assert "sorted=1" in proc.stdout
        assert "visited=400" in proc.stdout

    def test_migrates_mid_insertion(self, prog):
        base = baseline(prog)
        res = migrated(prog, after_polls=123)
        assert res.stdout == base.stdout

    def test_many_small_blocks(self, prog):
        """§4.2: bitonic has "a large number of small memory blocks"."""
        res = migrated(prog, after_polls=399)
        st = res.migrations[0]
        assert st.n_blocks > 350
        assert st.data_bytes / st.n_blocks < 64  # small average block

    def test_migrate_both_directions(self, prog):
        base = baseline(prog)
        res1 = migrated(prog, after_polls=200, src=DEC5000, dst=SPARC20)
        res2 = migrated(prog, after_polls=200, src=SPARC20, dst=DEC5000)
        assert res1.stdout == base.stdout == res2.stdout


class TestExtraWorkloads:
    def test_matmul_migrates(self):
        prog = compile_program(matmul_source(10), poll_strategy="user")
        base = baseline(prog)
        assert "trace=" in base.stdout
        res = migrated(prog, after_polls=5)
        assert res.stdout == base.stdout

    def test_nbody_migrates(self):
        prog = compile_program(nbody_source(6, 8), poll_strategy="user")
        base = baseline(prog)
        res = migrated(prog, after_polls=4)
        assert res.stdout == base.stdout

    def test_nbody_struct_array_is_single_block(self):
        prog = compile_program(nbody_source(6, 4), poll_strategy="user")
        res = migrated(prog, after_polls=2)
        # bodies[] is one global block of structs
        assert res.migrations[0].n_blocks < 20


class TestHashtable:
    """The churn workload: chains grow and shrink; free() unregisters
    blocks; an enum drives the op mix; stats copy by struct assignment."""

    @pytest.fixture(scope="class")
    def prog(self):
        from repro.workloads import hashtable_source

        return compile_program(hashtable_source(400), poll_strategy="user")

    def test_runs(self, prog):
        proc = baseline(prog)
        assert "ins=" in proc.stdout and "live=" in proc.stdout

    def test_deterministic_across_archs(self, prog):
        outs = {a.name: baseline(prog, a).stdout for a in (DEC5000, SPARC20, ALPHA)}
        assert len(set(outs.values())) == 1

    @pytest.mark.parametrize("k", [1, 97, 223, 399])
    def test_migrates_at_any_point(self, prog, k):
        base = baseline(prog)
        res = migrated(prog, after_polls=k)
        assert res.stdout == base.stdout

    def test_migrates_across_word_size(self, prog):
        base = baseline(prog)
        res = migrated(prog, after_polls=200, dst=ALPHA)
        assert res.stdout == base.stdout

    def test_freed_entries_do_not_travel(self, prog):
        res = migrated(prog, after_polls=399)
        st = res.migrations[0]
        # live entries at the end of a 400-op run with delete churn are
        # far fewer than total inserts; the payload reflects only live ones
        assert st.restore.n_heap_allocs < 160
