"""End-to-end migration tests: the paper's correctness claims (E1).

"Output results indicate all applications run correctly under different
testing circumstances.  We inspected all data structures and their
contents and found them to be consistent before and after process
migration." (§4.1)
"""

import itertools

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, ULTRA5, X86, X86_64
from repro.migration import (
    Cluster,
    ETHERNET_10M,
    ETHERNET_100M,
    MigrationEngine,
    Scheduler,
)
from repro.migration.engine import MigrationError, collect_state
from repro.migration.precopy import PrecopyPolicy
from repro.msr.wire import CHUNK_HEADER_SIZE
from repro.vm.process import Process
from repro.vm.program import compile_program

WORK = """
struct item { double weight; struct item *next; };
struct item *inventory;

void add_item(double w) {
    struct item *it = (struct item *) malloc(sizeof(struct item));
    it->weight = w;
    it->next = inventory;
    inventory = it;
}

double total() {
    double s = 0.0;
    struct item *p;
    for (p = inventory; p != NULL; p = p->next) s += p->weight;
    return s;
}

int main() {
    int i;
    double check = 0.0;
    for (i = 0; i < 25; i++) {
        add_item(i * 0.125);
        check += total();
    }
    printf("check=%.3f n=%d\\n", check, i);
    return 0;
}
"""

COUNTING = """
int main() {
    int i;
    for (i = 0; i < 8; i++) { printf("%d\\n", i); migrate_here(); }
    return 0;
}
"""


def migrate_and_compare(src, src_arch, dst_arch, after_polls=5, **ck):
    prog = compile_program(src, **ck)
    base = Process(prog, src_arch)
    base.run_to_completion()

    cluster = Cluster()
    a = cluster.add_host("a", src_arch)
    b = cluster.add_host("b", dst_arch)
    cluster.connect(a, b, ETHERNET_10M)
    sched = Scheduler(cluster)
    proc = sched.spawn(prog, a)
    sched.request_migration(proc, b, after_polls=after_polls)
    result = sched.run(proc)
    assert result.stdout == base.stdout, (
        f"{src_arch.name}->{dst_arch.name}: {result.stdout!r} != {base.stdout!r}"
    )
    return result


class TestAllArchPairs:
    PAIRS = [
        p for p in itertools.permutations((DEC5000, SPARC20, ALPHA, X86_64), 2)
    ]

    @pytest.mark.parametrize(
        "pair", PAIRS, ids=lambda p: f"{p[0].name}->{p[1].name}"
    )
    def test_pair(self, pair):
        res = migrate_and_compare(WORK, pair[0], pair[1], after_polls=30)
        assert len(res.migrations) == 1
        st = res.migrations[0]
        assert st.source_arch == pair[0].name
        assert st.dest_arch == pair[1].name
        assert st.payload_bytes > 0


class TestMigrationMechanics:
    def test_source_process_terminates(self):
        prog = compile_program(WORK)
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 5
        proc.run()
        engine = MigrationEngine()
        dest, stats = engine.migrate(proc, SPARC20)
        assert proc.exited and not proc.frames
        assert not dest.exited and dest.frames

    @pytest.mark.parametrize("precopy", [False, True], ids=["stop-and-copy", "precopy"])
    def test_destination_stdout_continues_the_source(self, precopy):
        """What the source printed before the migration point — and,
        under pre-copy, during the slices — is the head of the
        destination's stdout."""
        prog = compile_program(COUNTING, poll_strategy="user")
        base = Process(prog, ALPHA)
        base.run_to_completion()
        proc = Process(prog, ALPHA)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 2
        assert proc.run().status == "poll" and proc.stdout == "0\n1\n"
        policy = PrecopyPolicy(max_rounds=2, stop_dirty_blocks=0) if precopy else None
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, precopy=precopy, precopy_policy=policy,
        )
        assert stats.precopy == precopy
        dest.run_to_completion()
        assert dest.stdout == base.stdout

    def test_stats_components(self):
        res = migrate_and_compare(WORK, DEC5000, SPARC20, after_polls=10)
        st = res.migrations[0]
        assert st.collect_time > 0
        assert st.restore_time > 0
        assert st.tx_time > 0
        assert st.migration_time == pytest.approx(
            st.collect_time + st.tx_time + st.restore_time
        )
        row = st.row()
        assert set(row) == {"Collect", "Tx", "Restore", "Total", "Bytes", "Blocks"}

    def test_tx_time_matches_link_model(self):
        res = migrate_and_compare(WORK, DEC5000, SPARC20, after_polls=10)
        st = res.migrations[0]
        # the payload rides one chunk frame, closed by a terminator
        expected = ETHERNET_10M.transfer_time(st.payload_bytes + 2 * CHUNK_HEADER_SIZE)
        assert st.tx_time == pytest.approx(expected)

    def test_migration_at_every_poll_index(self):
        """Exhaustive: migrating at each of the first 40 polls always
        preserves the final output."""
        prog = compile_program(WORK)
        base = Process(prog, DEC5000)
        base.run_to_completion()
        total_polls = base.polls
        assert total_polls >= 40
        for k in range(1, 41, 7):
            cluster = Cluster()
            a = cluster.add_host("a", DEC5000)
            b = cluster.add_host("b", SPARC20)
            sched = Scheduler(cluster)
            proc = sched.spawn(prog, a)
            sched.request_migration(proc, b, after_polls=k)
            res = sched.run(proc)
            assert res.stdout == base.stdout, f"diverged at poll {k}"

    def test_round_trip_home(self):
        """A -> B -> A: the process comes home and still finishes right."""
        prog = compile_program(WORK)
        base = Process(prog, DEC5000)
        base.run_to_completion()
        cluster = Cluster()
        a = cluster.add_host("a", DEC5000)
        b = cluster.add_host("b", SPARC20)
        sched = Scheduler(cluster)
        proc = sched.spawn(prog, a)
        sched.request_migration(proc, b, after_polls=10)
        sched.request_migration(proc, a, after_polls=10)
        res = sched.run(proc)
        assert len(res.migrations) == 2
        assert res.stdout == base.stdout

    def test_rand_stream_survives_migration(self):
        """The PRNG state lives in process memory: the migrated process
        continues the exact random sequence."""
        src = """
        int main() {
            int i; long acc = 0;
            srand(12345);
            for (i = 0; i < 50; i++) {
                acc += rand() % 1000;
                migrate_here();
            }
            printf("%d", (int) acc);
            return 0;
        }
        """
        prog = compile_program(src, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()
        cluster = Cluster()
        a = cluster.add_host("a", DEC5000)
        b = cluster.add_host("b", SPARC20)
        sched = Scheduler(cluster)
        proc = sched.spawn(prog, a)
        sched.request_migration(proc, b, after_polls=25)
        res = sched.run(proc)
        assert res.stdout == base.stdout

    def test_collect_requires_running_process(self):
        prog = compile_program(WORK)
        proc = Process(prog, DEC5000)  # never started
        with pytest.raises(MigrationError, match="no frames"):
            collect_state(proc)

    def test_migrate_at_specific_poll_id(self):
        src = """
        int main() {
            int i; int s = 0;
            for (i = 0; i < 10; i++) {
                migrate_here();   /* poll 0 */
                s += i;
                migrate_here();   /* poll 1 */
            }
            printf("%d", s);
            return 0;
        }
        """
        prog = compile_program(src, poll_strategy="user")
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_at_poll = 1
        result = proc.run()
        assert result.status == "poll" and result.poll_id == 1

    def test_heap_serials_survive_remigration(self):
        """Blocks keep stable logical ids across a chain of migrations
        even as new allocations interleave."""
        src = """
        struct n { int v; struct n *next; };
        struct n *head;
        int main() {
            int i;
            for (i = 0; i < 12; i++) {
                struct n *e = (struct n *) malloc(sizeof(struct n));
                e->v = i; e->next = head; head = e;
                migrate_here();
            }
            {
                int s = 0;
                struct n *p;
                for (p = head; p != NULL; p = p->next) s = s * 2 + p->v;
                printf("%d", s);
            }
            return 0;
        }
        """
        prog = compile_program(src, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()
        cluster = Cluster()
        hosts = [
            cluster.add_host("a", DEC5000),
            cluster.add_host("b", SPARC20),
            cluster.add_host("c", ALPHA),
        ]
        sched = Scheduler(cluster)
        proc = sched.spawn(prog, hosts[0])
        sched.request_migration(proc, hosts[1], after_polls=3)
        sched.request_migration(proc, hosts[2], after_polls=3)
        sched.request_migration(proc, hosts[0], after_polls=3)
        res = sched.run(proc)
        assert len(res.migrations) == 3
        assert res.stdout == base.stdout

    @pytest.mark.parametrize("chunk_size", [0, -5])
    @pytest.mark.parametrize("mode", [
        {}, {"streaming": True}, {"precopy": True},
    ], ids=["serial", "stream", "precopy"])
    def test_a_chunk_size_below_one_is_refused_before_a_run(self, mode, chunk_size):
        """One rule in every schedule: refused up front (no run, so no
        stats), not a ``range()`` traceback out of a pre-copy round, a
        round that silently degrades, or a serial pass that ignores it.
        The source is untouched."""
        prog = compile_program(WORK)
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 5
        proc.run()
        refused = f"chunk_size must be >= 1, got {chunk_size}"
        with pytest.raises(MigrationError, match=refused) as excinfo:
            MigrationEngine().migrate(proc, SPARC20, chunk_size=chunk_size, **mode)
        assert excinfo.value.stats is None
        assert proc.polls == 5 and proc.frames

    @pytest.mark.parametrize("mode", [{}, {"streaming": True}], ids=["serial", "stream"])
    def test_a_precopy_policy_without_precopy_is_refused_before_a_run(self, mode):
        """A policy says how pre-copy runs, not that it runs: without
        ``precopy=True`` it is refused up front (no run, no stats), not
        dropped for a plain stop-and-copy.  The source is untouched."""
        prog = compile_program(WORK)
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 5
        proc.run()
        with pytest.raises(MigrationError, match="precopy_policy is given") as excinfo:
            MigrationEngine().migrate(
                proc, SPARC20, precopy_policy=PrecopyPolicy(max_rounds=2), **mode
            )
        assert excinfo.value.stats is None
        assert proc.polls == 5 and proc.frames


class TestSchedulerBehaviour:
    def test_no_request_means_no_stop(self):
        prog = compile_program(WORK)
        cluster = Cluster()
        a = cluster.add_host("a", ULTRA5)
        sched = Scheduler(cluster)
        proc = sched.spawn(prog, a)
        res = sched.run(proc)
        assert res.exit_code == 0 and not res.migrations

    def test_unconnected_hosts_use_loopback(self):
        prog = compile_program(WORK)
        cluster = Cluster()
        a = cluster.add_host("a", DEC5000)
        b = cluster.add_host("b", SPARC20)
        # no connect() call
        sched = Scheduler(cluster)
        proc = sched.spawn(prog, a)
        sched.request_migration(proc, b, after_polls=5)
        res = sched.run(proc)
        assert res.migrations[0].tx_time < 1e-4

    def test_invoke_waiting_process(self):
        prog = compile_program(WORK)
        cluster = Cluster()
        b = cluster.add_host("b", SPARC20)
        waiting = b.invoke_waiting(prog)
        assert not waiting.frames  # loaded, not started
        assert len(waiting.msrlt) > 0  # globals registered


class TestOverheadCounters:
    def test_poll_count_depends_on_strategy(self):
        src = """
        int main() {
            int i; int s = 0;
            for (i = 0; i < 100; i++) s += i;
            printf("%d", s);
            return 0;
        }
        """
        by_strategy = {}
        for strat in ("user", "loops", "every-stmt"):
            prog = compile_program(src, poll_strategy=strat)
            proc = Process(prog, ULTRA5)
            proc.run_to_completion()
            by_strategy[strat] = proc.polls
        assert by_strategy["user"] == 0
        assert by_strategy["loops"] == 100
        assert by_strategy["every-stmt"] > by_strategy["loops"]

    def test_malloc_counter(self):
        src = """
        int main() {
            int i;
            for (i = 0; i < 7; i++) { int *p = (int *) malloc(4); free(p); }
            return 0;
        }
        """
        prog = compile_program(src)
        proc = Process(prog, ULTRA5)
        proc.run_to_completion()
        assert proc.mallocs == 7


class TestWaitingDestination:
    """Paper §2: the destination process is invoked first and waits for
    the migrating state."""

    def test_migrate_into_waiting_process(self):
        prog = compile_program(WORK)
        base = Process(prog, DEC5000)
        base.run_to_completion()

        cluster = Cluster()
        a = cluster.add_host("a", DEC5000)
        b = cluster.add_host("b", SPARC20)
        proc = a.spawn(prog)
        proc.migration_pending = True
        proc.migrate_after_polls = 10
        assert proc.run().status == "poll"

        waiting = b.invoke_waiting(prog)
        engine = MigrationEngine()
        dest, stats = engine.migrate(proc, SPARC20, waiting=waiting)
        assert dest is waiting
        dest.run()
        assert dest.stdout == base.stdout

    def test_running_waiting_process_rejected(self):
        prog = compile_program(WORK)
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 5
        proc.run()
        busy = Process(prog, SPARC20)
        busy.start()
        with pytest.raises(MigrationError, match="already running"):
            MigrationEngine().migrate(proc, SPARC20, waiting=busy)

    def test_wrong_arch_waiting_rejected(self):
        prog = compile_program(WORK)
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 5
        proc.run()
        waiting = Process(prog, ALPHA)
        waiting.load()
        with pytest.raises(MigrationError, match="not sparc20"):
            MigrationEngine().migrate(proc, SPARC20, waiting=waiting)

    def test_wrong_program_waiting_rejected(self):
        prog = compile_program(WORK)
        other = compile_program("int main() { migrate_here(); return 0; }",
                                poll_strategy="user")
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 5
        proc.run()
        waiting = Process(other, SPARC20)
        waiting.load()
        with pytest.raises(MigrationError, match="different program"):
            MigrationEngine().migrate(proc, SPARC20, waiting=waiting)
