"""§4.2 complexity claims, verified with deterministic counters.

Timing-based shape checks live in the benchmarks; these tests pin the
same claims to quantities that cannot flake: block counts, wire bytes,
and MSRLT operation counters.
"""

import sys
from collections import Counter

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, ULTRA5
from repro.clang.ctypes import TypeLayout
from repro.difftest.corpus import load_corpus
from repro.migration.engine import (
    MigrationEngine,
    collect_state,
    restore_state,
    restore_state_stream,
)
from repro.migration.precopy import PrecopyPolicy, run_precopy
from repro.migration.stats import MigrationStats
from repro.migration.transport import LOOPBACK, Channel
from repro.msr.graphplan import ChainPlan
from repro.msr.msrlt import MSRLT, BlockKind
from repro.vm.dirty import DirtyTracker
from repro.vm.memory import Memory
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import (
    bitonic_source,
    linpack_source,
    matmul_source,
    structgrid_source,
)
from tests.conftest import (
    assert_plans_invisible,
    longlist_source,
    plans_off,
    precopy_wire,
    ref_record,
)


def stopped(src, after=1, arch=ULTRA5):
    prog = compile_program(src, poll_strategy="user")
    proc = Process(prog, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = after
    assert proc.run().status == "poll"
    return proc


class TestLinpackShape:
    """Figure 2(a): constant n, Σ Dᵢ ∝ N², wire ∝ Σ Dᵢ."""

    SIZES = (16, 32, 48)

    @pytest.fixture(scope="class")
    def runs(self):
        out = []
        for n in self.SIZES:
            proc = stopped(linpack_source(n))
            payload, cinfo = collect_state(proc)
            out.append((n, cinfo.stats, len(payload)))
        return out

    def test_constant_node_count(self, runs):
        counts = {stats.n_blocks for _n, stats, _w in runs}
        assert len(counts) == 1

    def test_data_scales_quadratically_in_n(self, runs):
        (n1, s1, _), (_n2, _s2, _), (n3, s3, _) = runs
        ratio = s3.data_bytes / s1.data_bytes
        expect = (n3 * n3) / (n1 * n1)
        assert ratio == pytest.approx(expect, rel=0.15)

    def test_wire_linear_in_data(self, runs):
        for _n, stats, wire in runs:
            # wire = canonical-width data + per-block framing; the data
            # term dominates and framing is constant (constant n)
            assert abs(wire - stats.data_bytes) < 0.2 * stats.data_bytes + 2048

    def test_search_count_constant(self):
        """MSRLT search work does not grow with the matrix."""
        searches = []
        for n in self.SIZES:
            proc = stopped(linpack_source(n))
            before = proc.msrlt.n_searches
            collect_state(proc)
            searches.append(proc.msrlt.n_searches - before)
        assert len(set(searches)) == 1


class TestBitonicShape:
    """Figure 2(b): n blocks ∝ nodes, searches ∝ pointers, both linear."""

    SIZES = (100, 200, 400)

    @pytest.fixture(scope="class")
    def runs(self):
        out = []
        for n in self.SIZES:
            proc = stopped(bitonic_source(n), after=n)
            before = proc.msrlt.n_searches
            payload, cinfo = collect_state(proc)
            searches = proc.msrlt.n_searches - before
            out.append((n, cinfo.stats, searches))
        return out

    def test_blocks_linear_in_n(self, runs):
        for n, stats, _s in runs:
            assert n <= stats.n_blocks <= n + 16  # n tree nodes + fixed roots

    def test_searches_linear_in_n(self, runs):
        (n1, _s1, q1), (_n2, _s2, _q2), (n3, _s3, q3) = runs
        assert q3 / q1 == pytest.approx(n3 / n1, rel=0.15)

    def test_average_block_is_small(self, runs):
        for _n, stats, _q in runs:
            assert stats.data_bytes / stats.n_blocks < 32

    def test_restore_does_no_searches(self, runs):
        """The §4.2 asymmetry at its root: restoration never searches
        the address table — logical ids resolve through the O(1) map."""
        from repro.migration.engine import restore_state

        proc = stopped(bitonic_source(150), after=150)
        payload, _ = collect_state(proc)
        dest = Process(proc.program, ULTRA5)
        before = dest.msrlt.n_searches
        restore_state(proc.program, payload, dest)
        assert dest.msrlt.n_searches == before

    @staticmethod
    def python_calls(run) -> int:
        """Python-level calls (profiler ``call`` events) *run* makes."""
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            run()
        finally:
            sys.setprofile(None)
        return calls

    def test_collecting_a_node_costs_no_call(self):
        """The walk searches the table, looks the type up, marks the
        visit and unpacks the node from the heap window inline: an extra
        tree node costs no Python-level call."""
        costs = []
        for n in (200, 400):
            proc = stopped(bitonic_source(n), after=n, arch=ALPHA)
            costs.append(self.python_calls(lambda: collect_state(proc)))
        per_node = (costs[1] - costs[0]) / 200
        assert per_node <= 1, f"{per_node:.2f} Python calls per collected node"

    @pytest.mark.parametrize("chunk, budget", [
        (None, 3), (1 << 20, 3), (64, 3),
    ], ids=["serial", "one-chunk-stream", "64-byte-chunks"])
    def test_restoring_a_node_costs_two_calls(self, chunk, budget):
        """The walk reads records through its own cursor and carves heap
        blocks itself: an extra tree node costs its ``heap_carve`` and its
        ``MemoryBlock``, however the payload was cut (chunks are joined
        once before the walk)."""
        costs = []
        for n in (200, 400):
            proc = stopped(bitonic_source(n), after=n, arch=ALPHA)
            payload, _ = collect_state(proc)
            dest = Process(proc.program, SPARC20)
            if chunk is None:
                calls = self.python_calls(lambda: restore_state(proc.program, payload, dest))
            else:
                chunks = [payload[i : i + chunk] for i in range(0, len(payload), chunk)]
                calls = self.python_calls(
                    lambda: restore_state_stream(proc.program, iter(chunks), dest)
                )
            assert dest.run().status == "exit"
            costs.append(calls)
        per_node = (costs[1] - costs[0]) / 200
        assert per_node <= budget, f"{per_node:.2f} Python calls per restored node"


class TestWireShape:
    """What a record costs on the wire, to the byte: a header carries the
    fields that say something and nothing else, so payload size follows
    the data with the smallest slope the grammar allows."""

    @staticmethod
    def payload_bytes(source, after=1):
        return len(collect_state(stopped(source, after=after))[0])

    def test_a_tree_node_is_twelve_bytes(self):
        """7 header + 4 value + 1 NULL per node (each node is the target
        of one pointer, and the N + 1 pointers left over are NULL)."""
        fixed = {
            self.payload_bytes(bitonic_source(n), after=n) - 12 * n
            for n in (100, 200, 400)
        }
        assert len(fixed) == 1

    def test_a_list_record_with_its_string(self):
        """Record: 7 header + 4 id; its string: 7 header + 4 count +
        the characters and their NUL; the next record is the tail's.
        The lengths are a shuffle of {1 + i % 13}: 7 on average when N
        is a multiple of 13, so 30 bytes a record — and 4 more for its
        slot in ``lens``, the array on ``main``'s stack."""
        fixed = {
            self.payload_bytes(longlist_source(n)) - (30 + 4) * n
            for n in (130, 260, 390)
        }
        assert len(fixed) == 1

    def test_a_chain_batch_ends_at_the_row_with_a_stack_ref(self, monkeypatch):
        """A REF to a stack block ships its ``b``: 13 bytes where a chain
        row's pointer column has room for 9.  The batch ends in front of
        that row and the next begins behind it — on both sides, with
        bytes and addresses those of the per-cell oracle."""
        entry = next(e for e in load_corpus() if e.name == "hand_chain_stackref")
        saved, restored = [], []
        build_rows, restore_batch = ChainPlan._build_rows, ChainPlan._restore_batch

        def saving(plan, *args):
            rows, m = build_rows(plan, *args)
            saved.append(m)
            return rows, m

        def restoring(plan, restorer):
            before = restorer.stats.n_blocks
            batch = restore_batch(plan, restorer)
            if batch is not None:
                restored.append(restorer.stats.n_blocks - before)
            return batch

        monkeypatch.setattr(ChainPlan, "_build_rows", saving)
        monkeypatch.setattr(ChainPlan, "_restore_batch", restoring)
        proc = stopped(entry.source, after=2)
        payload, _ = collect_state(proc)
        # head -> 15 | 14..11 | 10 (main's local) | 9..5 | 4 (walk's) | 3..0
        assert saved == [4, 0, 5, 0, 4]
        assert payload.count(ref_record((BlockKind.STACK, 0, 0))) == 1
        assert payload.count(ref_record((BlockKind.STACK, 1, 2))) == 1
        restore_state(proc.program, payload, Process(proc.program, SPARC20))
        assert restored == [4, 5, 4]
        for polls in (1, 2, 3):
            assert_plans_invisible(entry.source, polls, ULTRA5, SPARC20)
            assert_plans_invisible(entry.source, polls, SPARC20, ALPHA)


class TestDedupShape:
    def test_k_aliases_cost_one_block_plus_k_refs(self):
        """Wire size grows by a constant per extra alias, not per copy."""
        def payload_with_aliases(k):
            slots = "".join(f"copies[{i}] = one;\n" for i in range(k))
            src = f"""
            struct fat {{ double pad[64]; }};
            struct fat *one;
            struct fat *copies[32];
            int main() {{
                one = (struct fat *) malloc(sizeof(struct fat));
                {slots}
                migrate_here();
                return 0;
            }}
            """
            proc = stopped(src)
            data, cinfo = collect_state(proc)
            return len(data), cinfo.stats

        w1, s1 = payload_with_aliases(1)
        w16, s16 = payload_with_aliases(16)
        assert s1.n_blocks == s16.n_blocks  # still one fat block
        per_alias = (w16 - w1) / 15
        assert per_alias < 32  # a REF record, not a 512-byte copy


# every slice writes two cells of a global, allocates a node and frees the
# one before it, next to %d bystander list nodes nothing ever writes
CHURN_BESIDE_BYSTANDERS_SRC = """
struct node { int v; struct node *next; };
struct node *keep;
struct node *churn;
int cells[64];

int main() {
    int i; struct node *n;
    for (i = 0; i < %d; i++) {
        n = (struct node *) malloc(sizeof(struct node));
        n->v = i; n->next = keep; keep = n;
    }
    for (i = 0; i < 6; i++) {
        migrate_here();
        cells[i] = i + 1; cells[40 + i] = i;
        n = (struct node *) malloc(sizeof(struct node));
        n->v = i; n->next = NULL;
        if (churn != NULL) free(churn);
        churn = n;
    }
    migrate_here();
    printf("%%d\\n", cells[3] + churn->v + keep->v);
    return 0;
}
"""


# the same churn beside a global pointer array that every slice re-aims
# whole: 2 048 pointers into one global array, four per block of the
# table and more next to 400 bystanders
HOT_BESIDE_BYSTANDERS_SRC = """
struct node { int v; struct node *next; };
struct node *keep;
struct node *churn;
struct node grid[64];
struct node *hot[2048];

int main() {
    int i; int k; struct node *n;
    for (i = 0; i < %d; i++) {
        n = (struct node *) malloc(sizeof(struct node));
        n->v = i; n->next = keep; keep = n;
    }
    for (i = 0; i < 64; i++) grid[i].v = i * 3;
    for (i = 0; i < 6; i++) {
        migrate_here();
        for (k = 0; k < 2048; k++) hot[k] = &grid[(k + i) %% 64];
        n = (struct node *) malloc(sizeof(struct node));
        n->v = i; n->next = NULL;
        if (churn != NULL) free(churn);
        churn = n;
    }
    migrate_here();
    printf("%%d\\n", hot[2047]->v + churn->v + keep->v);
    return 0;
}
"""


@pytest.fixture
def walked(monkeypatch):
    """How many table entries each wholesale read-out took: a call of
    ``MSRLT.blocks`` / ``heap_blocks`` / ``non_stack_by_logical`` appends
    its length to the list returned."""
    reads = []
    for name in ("blocks", "heap_blocks", "non_stack_by_logical"):
        def counting(table, inner=getattr(MSRLT, name)):
            out = inner(table)
            reads.append(len(out))
            return out

        monkeypatch.setattr(MSRLT, name, counting)
    return reads


class TestPrecopyRoundShape:
    """A pre-copy delta round costs what the slice wrote — in bytes and
    in table entries walked — not what the heap holds."""

    @staticmethod
    def rounds_of(src, after, policy, arch=ULTRA5, dest=SPARC20):
        """``stats.precopy_round_bytes`` of one pre-copy migration."""
        _dest, stats = MigrationEngine().migrate(
            stopped(src, after=after, arch=arch), dest,
            precopy=True, precopy_policy=policy,
        )
        assert stats.precopy and not stats.precopy_degraded
        return stats.precopy_round_bytes

    def test_matmul_round_bytes_grow_with_the_row_not_the_matrix(self):
        """Each slice writes one row of the N x N heap matrix ``c``: a
        round is that row's N doubles (one run) plus constant framing,
        where the whole block would be N² doubles."""
        policy = PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0, slice_polls=1)
        framing = set()
        for n in (16, 32, 48):
            snapshot, *deltas = self.rounds_of(matmul_source(n), 1, policy)
            assert len(set(deltas)) == 1 and len(deltas) == 3
            assert snapshot > 3 * n * n * 8  # three matrices
            framing.add(deltas[0] - 8 * n)
        assert len(framing) == 1 and framing.pop() < 64

    def test_arena_builds_do_not_grow_with_the_rounds(self, walked, monkeypatch):
        """Every slice allocates; a round's 20-pointer dirty run of
        ``hot`` resolves against the one block it points into, and a
        pass born with the ledgers offers no chain tail: once the
        snapshot is behind, neither the rounds nor the pause read the
        table out, at two rounds or at six."""
        run = Process.run
        slices = []

        def slicing(process, *args):
            if not slices:
                del walked[:]  # the snapshot and the ledgers read off it are behind
            slices.append(1)
            return run(process, *args)

        monkeypatch.setattr(Process, "run", slicing)
        src = structgrid_source(256, 600)
        for max_rounds in (2, 6):
            proc = stopped(src, after=300)
            del slices[:]
            policy = PrecopyPolicy(
                max_rounds=max_rounds, stop_dirty_blocks=0, slice_polls=20
            )
            _dest, stats = MigrationEngine().migrate(
                proc, SPARC20, precopy=True, precopy_policy=policy
            )
            assert stats.precopy and not stats.precopy_degraded
            assert len(stats.precopy_round_bytes) == max_rounds + 1
            assert walked == []

    def test_a_round_walks_what_changed_not_the_table(self, walked, monkeypatch):
        """The same slices (two cells of a global, one new node, one node
        freed) next to 40 and next to 400 bystander heap blocks: between
        the snapshot and the stop, neither side may read the table out
        (``blocks()``, ``heap_blocks()``, an index copy) in proportion
        to its size, and the drivers visit only what the rounds carry."""
        run = Process.run
        slices = []

        def slicing(process, *args):
            if not slices:
                del walked[:]  # the snapshot and the ledgers read off it are behind
            slices.append(1)
            return run(process, *args)

        monkeypatch.setattr(Process, "run", slicing)

        policy = PrecopyPolicy(max_rounds=4, stop_dirty_blocks=0, slice_polls=1)
        costs = []
        for bystanders in (40, 400):
            proc = stopped(CHURN_BESIDE_BYSTANDERS_SRC % bystanders)
            del slices[:]
            stats = MigrationStats()
            state = run_precopy(
                proc, Process(proc.program, SPARC20), Channel(LOOPBACK), policy, stats, 4096
            )
            # the snapshot, four delta rounds, and the last slice's free
            assert stats.precopy_rounds == 6 and len(state.fresh) > bystanders
            costs.append((sum(walked), stats.precopy_round_bytes[1:]))
        # 4 rounds x (cells, churn, the new node) and one free each after the first
        assert stats.precopy_dirty_blocks == 12
        assert costs[0] == costs[1]
        assert costs[0][0] <= 4 * stats.precopy_dirty_blocks


#: a 300-node chain allocated back to back, behind 700 bystander blocks
CHAIN_BESIDE_BYSTANDERS_SRC = """
struct node { int id; double weight; struct node *next; };
struct node *head;
int *keep;

int main() {
    int i; struct node *p;
    for (i = 0; i < 700; i++) { keep = (int *) malloc(sizeof(int)); *keep = i; }
    for (i = 0; i < 300; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->id = i; p->weight = i * 0.5; p->next = head; head = p;
    }
    migrate_here();
    printf("%d\\n", head->id + *keep);
    return 0;
}
"""


class TestChainBatchShape:
    def test_a_chain_batch_reads_nothing_out_of_the_table(self, walked, monkeypatch):
        """A plain collect of a 300-node chain in a ~1 000-block table
        commits a batch, searches the table once per node, and reads
        nothing out of it."""
        batches = []
        save_batch = ChainPlan._save_batch

        def counting(plan, *args):
            value = save_batch(plan, *args)
            batches.append(value is not None)
            return value

        monkeypatch.setattr(ChainPlan, "_save_batch", counting)
        proc = stopped(CHAIN_BESIDE_BYSTANDERS_SRC)
        assert len(proc.msrlt) in range(1000, 1010)
        del walked[:]
        planned, info = collect_state(proc)
        searches = proc.msrlt.n_searches
        assert batches == [True] and info.stats.n_plan_blocks >= 298
        assert walked == []
        with plans_off(proc):
            oracle, _ = collect_state(proc)
        assert planned == oracle
        assert proc.msrlt.n_searches - searches == searches


class TestPrecopyPauseShape:
    """The pause — from the last slice's return to ``migrate()``'s — costs
    what is stale, not what the heap holds: the final pass is handed the
    ledgers the rounds kept, so neither side reads a table out or
    copies an index."""

    def test_the_pause_walks_what_is_stale_not_the_table(self, walked, monkeypatch):
        run = Process.run

        def slicing(process, *args):
            result = run(process, *args)
            del walked[:]  # all that is behind the last slice's return
            return result

        monkeypatch.setattr(Process, "run", slicing)

        policy = PrecopyPolicy(max_rounds=4, stop_dirty_blocks=0, slice_polls=1)
        costs = []
        for bystanders in (40, 400):
            dest, stats = MigrationEngine().migrate(
                stopped(CHURN_BESIDE_BYSTANDERS_SRC % bystanders), SPARC20,
                precopy=True, precopy_policy=policy,
            )
            costs.append((list(walked), stats.n_blocks))
            assert stats.precopy and not stats.precopy_degraded
            assert len(dest.msrlt) > bystanders
            assert dest.run().status == "exit"
            assert dest.stdout == f"{4 + 5 + bystanders - 1}\n"
        # the final stream is main's locals and what the last slice wrote
        # (cells, churn, the new node), read off no table
        assert costs[0] == costs[1] and costs[0][0] == []

    def test_a_dirty_pointer_array_resolves_per_target(self, walked, monkeypatch):
        """A pointer array the last slice re-aimed whole, at least four
        pointers per block of the table and all into one global: the
        pause resolves it against that one block, not a pass over the
        table, and sends what the per-cell oracle sends."""
        run = Process.run
        bulk = []  # what the pause's bulk searches booked, call by call

        def slicing(process, *args):
            result = run(process, *args)
            del walked[:], bulk[:]  # all that is behind the last slice's return
            return result

        count = MSRLT.count_searches

        def counting(table, n):
            bulk.append(n)
            count(table, n)

        monkeypatch.setattr(Process, "run", slicing)
        monkeypatch.setattr(MSRLT, "count_searches", counting)

        policy = PrecopyPolicy(max_rounds=4, stop_dirty_blocks=0, slice_polls=1)
        for bystanders in (40, 400):
            prog = compile_program(
                HOT_BESIDE_BYSTANDERS_SRC % bystanders, poll_strategy="user"
            )
            expected = Process(prog, ULTRA5)
            expected.run_to_completion()
            planned, dest, _stats = precopy_wire(prog, ULTRA5, SPARC20, policy)
            assert walked == []
            assert max(bulk) == 2048 >= 4 * len(dest.msrlt)
            with plans_off(Process(prog, ULTRA5), Process(prog, SPARC20)):
                oracle, _twin, _ = precopy_wire(prog, ULTRA5, SPARC20, policy)
            assert planned == oracle
            assert dest.run().status == "exit" and dest.stdout == expected.stdout


class TestPrecopySliceShape:
    """The source runs a pre-copy slice on the interpreter's fast path.
    Under the write barrier, the 32 polls of the suite's structgrid
    writer (per poll one ``malloc``, two ``rand`` calls and five heap
    and global stores) reach neither ``Memory.store`` nor
    ``Memory.load``, and ``malloc`` sizes an annotation once per type.
    The log stays what the generic paths write."""

    @staticmethod
    def writer():
        """The ``structgrid.precopy`` suite row's source, at its stop poll."""
        return stopped(structgrid_source(4096, 1024, 7), after=416, arch=DEC5000)

    @staticmethod
    def barred_slice(proc, polls=32):
        """Run *proc* for *polls* poll-points with a ``DirtyTracker``
        installed, as a pre-copy slice does; the intervals it logged."""
        memory = proc.memory
        tracker = DirtyTracker(memory.stack_seg.base, memory.stack_seg.limit)
        proc.migrate_at_poll = None
        proc.migration_pending, proc.migrate_after_polls = True, polls
        memory.dirty = tracker
        try:
            assert proc.run().status == "poll"
        finally:
            memory.dirty = None
        return tracker.take()

    def test_a_barred_slice_makes_no_generic_access(self, monkeypatch):
        calls = Counter()
        for cls, name in ((Memory, "store"), (Memory, "load"), (TypeLayout, "sizeof")):
            def counting(*args, inner=getattr(cls, name), name=name):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(cls, name, counting)
        proc = self.writer()
        calls.clear()
        intervals = self.barred_slice(proc)
        assert calls["store"] == calls["load"] == 0 and calls["sizeof"] <= 1, calls
        # 32 new nodes, ``chain``, the run of ``hot`` cells, the PRNG cell
        assert len(intervals) == 35

    def test_the_fast_path_logs_what_memory_store_logs(self, monkeypatch):
        fast = self.barred_slice(self.writer())
        proc = self.writer()
        # the reference: a pack table whose sizes no window holds sends
        # every interpreter store to Memory.store, and the PRNG cell goes
        # through Memory.load / store
        memory = proc.memory
        monkeypatch.setattr(
            memory, "_pack", {kind: (pk, 1 << 62) for kind, (pk, _) in memory._pack.items()}
        )
        monkeypatch.setattr(
            Process, "get_rand_state", lambda p: p.memory.load("uint", p._rand_addr)
        )
        monkeypatch.setattr(
            Process, "set_rand_state", lambda p, v: p.memory.store("uint", p._rand_addr, v)
        )
        assert self.barred_slice(proc) == fast and len(fast) == 35
