"""Tests for the per-type cost attribution profiler (DESIGN.md §10).

The profiler's core contract is a *partition*: per-row self wire bytes
plus the framing residual sum to the payload size **exactly** — no byte
is counted twice (nested blocks subtract their children) and none is
lost (the residual row absorbs headers and record scaffolding).  These
tests pin that, the codec-engagement and MSRLT-search accounting, the
hot-path off-switch (``stats.attribution is None``, profiler detached
from the MSRLT), and the engine integration in both transfer modes.

The second contract is that observation does not change what runs: an
attributed migration takes the same compiled plans as a plain one (same
payload, same ``CollectStats`` / ``RestoreStats``), and the table it
produces is the one the per-cell oracle produces — a plan that emits
many blocks at once books them itself (``TestPlansKeepTheTable``).
"""

import functools
import sys

import pytest

from repro.arch import DEC5000, SPARC20
from repro.difftest.corpus import load_corpus
from repro.migration.engine import MigrationEngine, collect_state
from repro.migration.transport import (
    Channel,
    FaultPlan,
    FaultyChannel,
    LOOPBACK,
    SocketChannel,
)
from repro.obs import MigrationObservation
from repro.obs.attribution import (
    AttributionProfiler,
    BLOCK_CLASSES,
    FRAMING_ROW,
    block_class_of,
)
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import structgrid_source
from tests.conftest import (
    PLAN_ARCH_PAIRS,
    PLAN_WORKLOADS,
    plans_off,
)

PROGRAM = """
struct node { double w; struct node *next; };
struct node *ring;
double table[300];
int main() {
    int i;
    for (i = 0; i < 40; i++) {
        struct node *e = (struct node *) malloc(sizeof(struct node));
        e->w = i * 0.5; e->next = ring; ring = e;
    }
    for (i = 0; i < 300; i++) table[i] = i * 1.25;
    migrate_here();
    { struct node *p; double s = 0.0;
      for (p = ring; p != NULL; p = p->next) s += p->w;
      for (i = 0; i < 300; i++) s += table[i];
      printf("%d", (int) s); }
    return 0;
}
"""



@pytest.fixture(scope="module")
def prog():
    return compiled(PROGRAM)


@pytest.fixture(scope="module")
def expected(prog):
    p = Process(prog, DEC5000)
    p.run_to_completion()
    return p.stdout


def row_of(attr, type_substr):
    matches = [r for r in attr["rows"] if type_substr in r["type"]]
    assert matches, f"no attribution row matching {type_substr!r}"
    return matches[0]


@functools.lru_cache(maxsize=None)
def compiled(source):
    """One program object per source text: the TI tables ``plans_off``
    switches are shared per (program, architecture)."""
    return compile_program(source, poll_strategy="user")


def stopped(prog, arch=DEC5000, polls=1):
    """A process of *prog* on *arch* stopped at its *polls*-th
    poll-point, or ``None`` if the program exits before it."""
    proc = Process(prog, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = polls
    return proc if proc.run().status == "poll" else None


def attributed_migration(source, polls, src=DEC5000, dst=SPARC20,
                         streamed=False, attribution=True):
    """One engine migration of *source* stopped at its *polls*-th
    poll-point; returns ``(source process, destination, stats)``."""
    proc = stopped(compiled(source), src, polls)
    if streamed:
        channel = SocketChannel(LOOPBACK)
        dest, stats = MigrationEngine().migrate(
            proc, dst, channel=channel, streaming=True, chunk_size=512,
            attribution=attribution,
        )
        channel.close()
    else:
        dest, stats = MigrationEngine().migrate(
            proc, dst, channel=Channel(LOOPBACK), attribution=attribution
        )
    return proc, dest, stats


#: the columns of the table that must not depend on which path ran
#: (seconds do; engagement says which path ran)
TABLE_COLUMNS = (
    "bytes", "restore_bytes", "blocks", "restore_blocks", "cells",
    "msrlt_searches",
)


def table_of(stats):
    """The attribution table keyed by (type, class), after checking
    that its byte column partitions the payload (framing row included)."""
    attr = stats.attribution
    assert sum(r["bytes"] for r in attr["rows"]) == stats.payload_bytes
    assert attr["payload_bytes"] == stats.payload_bytes
    return {
        (r["type"], r["class"]): tuple(r[c] for c in TABLE_COLUMNS)
        for r in attr["rows"]
    }


def assert_table_is_the_oracles(source, polls, src, dst, streamed=False):
    """The table of an attributed migration with the plans on equals
    the table of the same migration on the per-cell oracle.  Returns
    the plans-on stats."""
    proc, dest, planned = attributed_migration(source, polls, src, dst, streamed)
    with plans_off(proc, dest):
        _, _, oracle = attributed_migration(source, polls, src, dst, streamed)
    assert oracle.collect.n_plan_blocks == 0  # the oracle really ran
    assert planned.payload_bytes == oracle.payload_bytes
    assert table_of(planned) == table_of(oracle)
    return planned


# -- the profiler in isolation ------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestProfilerUnit:
    def test_nested_frames_attribute_self_cost_only(self):
        """A parent block's row gets total minus children — the nested
        child's bytes and seconds are not double counted."""
        clock = FakeClock()
        prof = AttributionProfiler(clock=clock)
        prof.enter_block("collect", "struct outer", "global", pos=0)
        clock.t = 1.0
        prof.enter_block("collect", "double [8]", "heap", pos=10)
        clock.t = 3.0
        prof.exit_block(pos=74, engagement="flat")  # child: 2 s, 64 B
        clock.t = 4.0
        prof.exit_block(pos=100, engagement="percell")  # total 4 s, 100 B
        prof.note_payload(120)
        summary = prof.summary()
        rows = {(r["type"], r["class"]): r for r in summary["rows"]}
        outer = rows[("struct outer", "global")]
        inner = rows[("double [8]", "heap")]
        assert inner["bytes"] == 64 and inner["collect_s"] == pytest.approx(2.0)
        assert outer["bytes"] == 36 and outer["collect_s"] == pytest.approx(2.0)
        assert rows[FRAMING_ROW]["bytes"] == 20
        assert sum(r["bytes"] for r in summary["rows"]) == 120

    def test_engagement_and_phase_counters(self):
        prof = AttributionProfiler(clock=FakeClock())
        prof.enter_block("collect", "int", "global", 0)
        prof.exit_block(4, "flat", cells=1)
        prof.enter_block("restore", "int", "global", 0)
        prof.exit_block(4, "codec", cells=1)
        (row,) = prof.summary()["rows"]
        assert row["blocks"] == 1 and row["restore_blocks"] == 1
        assert row["bytes"] == 4 and row["restore_bytes"] == 4
        assert row["flat"] == 1 and row["codec"] == 1 and row["percell"] == 0
        assert row["cells"] == 2

    def test_msrlt_lookup_attributed_to_open_frame(self):
        prof = AttributionProfiler(clock=FakeClock())
        prof.enter_block("collect", "struct node", "heap", 0)
        prof.msrlt_lookup(depth=5)
        prof.msrlt_lookup(depth=4)
        prof.exit_block(8, "percell")
        prof.msrlt_lookup(depth=3)  # no frame open
        summary = prof.summary()
        rows = {(r["type"], r["class"]): r for r in summary["rows"]}
        node = rows[("struct node", "heap")]
        assert node["msrlt_searches"] == 2
        assert node["msrlt_depth"] == 9
        assert rows[FRAMING_ROW]["msrlt_searches"] == 1

    def test_batch_is_child_cost_of_the_open_frame(self):
        """``book_batch`` books n visits in one call and charges the
        open frame exactly what n nested frames would have."""
        clock = FakeClock()
        prof = AttributionProfiler(clock=clock)
        prof.enter_block("collect", "struct head", "global", pos=0)
        clock.t = 5.0
        prof.book_batch("collect", "struct node", "heap", blocks=8,
                        nbytes=240, seconds=3.0, cells=16)
        prof.exit_block(pos=270, engagement="percell", cells=2)
        rows = {(r["type"], r["class"]): r for r in prof.summary()["rows"]}
        node = rows[("struct node", "heap")]
        assert node["blocks"] == 8 and node["codec"] == 8
        assert node["bytes"] == 240 and node["cells"] == 16
        assert node["collect_s"] == pytest.approx(3.0)
        head = rows[("struct head", "global")]
        assert head["bytes"] == 30 and head["collect_s"] == pytest.approx(2.0)
        assert head["blocks"] == 1 and head["percell"] == 1

    def test_batch_scope_comes_from_the_open_frame(self):
        prof = AttributionProfiler(clock=FakeClock())
        with prof.scoped("precopy"):
            prof.enter_block("restore", "struct head", "global", pos=0)
        # the phase boundary moved while the frame was open
        prof.book_batch("restore", "struct node", "heap", 4, 80, 0.0, 8)
        prof.exit_block(pos=100, engagement="percell")
        summary = prof.summary()
        assert summary["rows"] == []
        rows = {r["type"]: r for r in summary["scopes"]["precopy"]["rows"]}
        assert rows["struct node"]["restore_blocks"] == 4
        assert rows["struct node"]["restore_bytes"] == 80
        assert rows["struct head"]["restore_bytes"] == 20

    def test_batch_without_open_frame_uses_current_scope(self):
        prof = AttributionProfiler(clock=FakeClock())
        with prof.scoped("precopy"):
            prof.book_batch("collect", "struct node", "heap", 2, 40, 0.0, 4)
        prof.book_batch("collect", "struct node", "heap", 3, 60, 0.0, 6)
        summary = prof.summary()
        assert summary["rows"][0]["blocks"] == 3
        assert summary["scopes"]["precopy"]["rows"][0]["blocks"] == 2

    def test_continuation_books_cost_but_no_visit(self):
        """What follows a batch is its last block's record: bytes and
        lookups inside the continuation frame land in the batch's row,
        not in the frame the plan ran in, and count no visit."""
        prof = AttributionProfiler(clock=FakeClock())
        prof.enter_block("collect", "struct node", "global", pos=0)
        prof.book_batch("collect", "struct node", "heap", 4, 100, 0.0, 8)
        prof.enter_block("collect", "struct node", "heap", 120, counted=False)
        prof.msrlt_lookups(7, depth=3)
        prof.exit_block(pos=121, engagement="percell")  # after a NULL tail
        rows = {(r["type"], r["class"]): r for r in prof.summary()["rows"]}
        heap = rows[("struct node", "heap")]
        assert heap["bytes"] == 101 and heap["blocks"] == 4
        assert heap["msrlt_searches"] == 7 and heap["msrlt_depth"] == 21
        assert heap["codec"] == 4 and heap["percell"] == 0
        head = rows[("struct node", "global")]
        assert head["bytes"] == 20 and head["blocks"] == 1
        assert head["msrlt_searches"] == 0

    def test_block_exit_closes_the_continuations_inside_it(self):
        """Back-to-back batches nest their continuations; a block nested
        in one closes only itself; the block around them closes all."""
        prof = AttributionProfiler(clock=FakeClock())
        prof.enter_block("restore", "struct node", "stack", pos=0)
        prof.enter_block("restore", "struct node", "heap", 50, counted=False)
        prof.enter_block("restore", "struct node", "heap", 50, counted=False)
        prof.enter_block("restore", "char [4]", "heap", 72)
        prof.exit_block(pos=76, engagement="flat")
        prof.exit_block(pos=76, engagement="percell")
        prof.msrlt_lookup(depth=1)  # no frame open now
        rows = {(r["type"], r["class"]): r for r in prof.summary()["rows"]}
        assert rows[("char [4]", "heap")]["restore_bytes"] == 4
        assert rows[("struct node", "heap")]["restore_bytes"] == 22
        assert rows[("struct node", "heap")]["restore_blocks"] == 0
        assert rows[("struct node", "stack")]["restore_bytes"] == 50
        assert rows[FRAMING_ROW]["msrlt_searches"] == 1

    def test_note_payload_keeps_max(self):
        prof = AttributionProfiler()
        prof.note_payload(100)
        prof.note_payload(60)  # a retried smaller attempt cannot shrink it
        assert prof.summary()["payload_bytes"] == 100

    def test_rows_sorted_by_bytes_descending(self):
        clock = FakeClock()
        prof = AttributionProfiler(clock=clock)
        for label, nbytes in (("small", 10), ("big", 90), ("mid", 40)):
            prof.enter_block("collect", label, "global", 0)
            prof.exit_block(nbytes, "flat")
        got = [r["type"] for r in prof.summary()["rows"]]
        assert got == ["big", "mid", "small"]

    def test_empty_profiler_is_truthy(self):
        assert AttributionProfiler()
        assert AttributionProfiler().summary() == {"payload_bytes": 0, "rows": []}

    def test_block_class_of(self):
        assert [block_class_of((k, 0)) for k in range(3)] == list(BLOCK_CLASSES)
        assert block_class_of((99, 0)) == "unknown"


class TestObservationWiring:
    def test_attribution_off_by_default(self):
        assert MigrationObservation("m").attribution is None

    def test_attribution_flag_creates_profiler(self):
        obs_ = MigrationObservation("m", attribution=True)
        assert isinstance(obs_.attribution, AttributionProfiler)


# -- engine integration -------------------------------------------------------


class TestEngineAttribution:
    @pytest.fixture(scope="class")
    def attributed(self):
        return attributed_migration(PROGRAM, 1)

    def test_byte_partition_is_exact(self, attributed, expected):
        proc, dest, stats = attributed
        dest.run()
        assert dest.stdout == expected
        attr = stats.attribution
        assert attr is not None
        total = sum(r["bytes"] for r in attr["rows"])
        assert total == attr["payload_bytes"] == stats.payload_bytes

    def test_framing_residual_present(self, attributed):
        _, _, stats = attributed
        framing = row_of(stats.attribution, "(framing)")
        assert framing["class"] == "wire"
        assert framing["bytes"] > 0
        assert framing["blocks"] == 0

    def test_known_rows_and_block_classes(self, attributed):
        _, _, stats = attributed
        attr = stats.attribution
        table = row_of(attr, "double [300]")
        assert table["class"] == "global"
        node = row_of(attr, "struct node")
        assert node["class"] == "heap"
        assert node["blocks"] == 40  # one per malloc'd ring element
        classes = {r["class"] for r in attr["rows"]}
        assert classes <= set(BLOCK_CLASSES) | {"wire", "unknown"}

    def test_engagement_classes(self, attributed, prog):
        """The engagement counters say what ran.  The flat bulk path
        carries the scalar array; the ring is one ChainPlan batch behind
        its first node, which the driver walked through its RecordPlan;
        with the plans off every pointer-bearing block goes cell by
        cell."""
        _, _, stats = attributed
        attr = stats.attribution
        table = row_of(attr, "double [300]")
        assert table["flat"] == 2 and table["percell"] == 0  # collect+restore
        node = row_of(attr, "struct node")
        assert node["flat"] == 0
        assert node["codec"] == 2 * 40 and node["percell"] == 0
        assert stats.collect.n_plan_blocks >= 40

        proc = stopped(prog)
        with plans_off(proc, Process(prog, SPARC20)):
            _, oracle = MigrationEngine().migrate(
                proc, SPARC20, channel=Channel(LOOPBACK), attribution=True
            )
        node = row_of(oracle.attribution, "struct node")
        assert node["codec"] == 0
        assert node["percell"] == node["blocks"] + node["restore_blocks"] == 80

    def test_unbatched_record_blocks_book_codec(self):
        """A record block whose tail never batched still went through
        its compiled RecordPlan, one load or store per unit: every
        bitonic tree node."""
        _, _, stats = attributed_migration(*PLAN_WORKLOADS["bitonic"])
        node = row_of(stats.attribution, "struct tnode")
        assert node["blocks"] > 0 and node["percell"] == 0
        assert node["codec"] == node["blocks"] + node["restore_blocks"]

    def test_engagement_counts_cover_every_visit(self, attributed):
        _, _, stats = attributed
        for r in stats.attribution["rows"]:
            assert (r["flat"] + r["codec"] + r["percell"]
                    == r["blocks"] + r["restore_blocks"])

    def test_restore_side_mirrors_collect(self, attributed):
        _, _, stats = attributed
        rows = stats.attribution["rows"]
        assert sum(r["blocks"] for r in rows) == sum(
            r["restore_blocks"] for r in rows
        )
        # restore reads no framing residual, so restore bytes undershoot
        restore_total = sum(r["restore_bytes"] for r in rows)
        assert 0 < restore_total <= stats.payload_bytes

    def test_msrlt_rows_agree_with_metrics(self, attributed):
        """Row-attributed lookups are the *same* lookups the counters
        book — one instrumentation, two read-outs."""
        _, _, stats = attributed
        counters = stats.counters()
        rows = stats.attribution["rows"]
        assert sum(r["msrlt_searches"] for r in rows) == counters["msrlt.searches"]
        node = row_of(stats.attribution, "struct node")
        assert node["msrlt_searches"] > 0  # pointer chasing pays the searches
        assert node["msrlt_depth"] >= node["msrlt_searches"]

    def test_profiler_detached_after_migration(self, attributed):
        proc, dest, _ = attributed
        assert proc.msrlt.profiler is None
        assert dest.msrlt.profiler is None

    def test_disabled_by_default(self, prog):
        proc = stopped(prog)
        _, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=Channel(LOOPBACK)
        )
        assert stats.attribution is None
        assert proc.msrlt.profiler is None

    def test_streaming_partition_exact_across_threads(self, prog, expected):
        """Streamed over a socket, the attempt collects and restores on
        the one calling thread, and the partition stays exact through
        the socket's round trip."""
        proc = stopped(prog)
        channel = SocketChannel(LOOPBACK)
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True, chunk_size=512,
            attribution=True,
        )
        channel.close()
        dest.run()
        assert dest.stdout == expected
        attr = stats.attribution
        total = sum(r["bytes"] for r in attr["rows"])
        assert total == attr["payload_bytes"] == stats.payload_bytes

    def test_multi_attempt_accounting_is_cumulative(self, prog, expected):
        """A faulted attempt's collect work really happened; attribution
        keeps it — beside the table, as an abandoned attempt — while the
        default rows partition the single payload that arrived."""
        proc = stopped(prog)
        channel = FaultyChannel(
            Channel(LOOPBACK), FaultPlan.parse("bitflip@1:5")
        )
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True, chunk_size=512,
            attribution=True,
            max_attempts=3,
        )
        dest.run()
        assert dest.stdout == expected
        assert stats.retries == 1
        attr = stats.attribution
        assert attr["payload_bytes"] == stats.payload_bytes
        assert sum(r["bytes"] for r in attr["rows"]) == attr["payload_bytes"]
        (name, abandoned), = attr["abandoned"].items()
        assert name == "attempt 1"
        assert 0 < sum(r["bytes"] for r in abandoned["rows"]) <= stats.payload_bytes
        (line,) = [
            l for l in stats.obs.trace_lines() if l["event"] == "attribution"
        ]
        assert line["abandoned"] == attr["abandoned"]

    def test_attribution_in_trace_lines(self, attributed):
        _, _, stats = attributed
        (line,) = [
            l for l in stats.obs.trace_lines() if l["event"] == "attribution"
        ]
        assert line["payload_bytes"] == stats.payload_bytes
        assert line["rows"] == stats.attribution["rows"]


# -- observation does not change what runs ------------------------------------

MODES = [False, True]
MODE_IDS = ["mono", "streamed"]
PAIR_IDS = [f"{a.name}-{b.name}" for a, b in PLAN_ARCH_PAIRS]

#: a chain of heap nodes behind a head that is NOT a heap node: the
#: record after the batch is the last heap node's tail, so it must not
#: land in the head's row.  ``pool`` is an array of such heads, and
#: ``heads`` one heap block of two units, each heading a chain.
HEADED_CHAINS = """
struct node { int v; struct node *next; };
struct node ghead;
struct node pool[3];
struct node *heads;
struct node *grow(struct node *tail, int n) {
    int i;
    for (i = 0; i < n; i++) {
        struct node *e = (struct node *) malloc(sizeof(struct node));
        e->v = i; e->next = tail; tail = e;
    }
    return tail;
}
int main() {
    struct node shead;
    struct node *p;
    int k, sum;
    ghead.v = -1; ghead.next = grow(NULL, 12);
    shead.v = -2; shead.next = grow(NULL, 9);
    for (k = 0; k < 3; k++) { pool[k].v = 100 + k; pool[k].next = grow(NULL, 8 + k); }
    heads = (struct node *) malloc(2 * sizeof(struct node));
    for (k = 0; k < 2; k++) { heads[k].v = 200 + k; heads[k].next = grow(NULL, 8); }
    migrate_here();
    sum = 0;
    for (p = &ghead; p != NULL; p = p->next) sum += p->v;
    for (p = &shead; p != NULL; p = p->next) sum += p->v;
    for (k = 0; k < 3; k++) for (p = &pool[k]; p != NULL; p = p->next) sum += p->v;
    for (k = 0; k < 2; k++) for (p = &heads[k]; p != NULL; p = p->next) sum += p->v;
    printf("%d", sum);
    return 0;
}
"""


class TestPlansKeepTheTable:
    @pytest.mark.parametrize("streamed", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("pair", PLAN_ARCH_PAIRS, ids=PAIR_IDS)
    @pytest.mark.parametrize("workload", sorted(PLAN_WORKLOADS))
    def test_stats_and_payload_do_not_see_the_profiler(
        self, workload, pair, streamed
    ):
        """Same blocks through the same plans, same bytes out."""
        source, polls = PLAN_WORKLOADS[workload]
        _, _, plain = attributed_migration(
            source, polls, *pair, streamed, attribution=False
        )
        _, _, seen = attributed_migration(source, polls, *pair, streamed)
        assert seen.collect == plain.collect
        assert seen.restore == plain.restore
        assert seen.n_chunks == plain.n_chunks
        proc = stopped(compiled(source), pair[0], polls)  # re-runnable
        with MigrationObservation("m", attribution=True).activate():
            observed, _ = collect_state(proc)
        unobserved, _ = collect_state(proc)
        assert observed == unobserved

    @pytest.mark.parametrize("streamed", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("pair", PLAN_ARCH_PAIRS, ids=PAIR_IDS)
    @pytest.mark.parametrize("workload", sorted(PLAN_WORKLOADS))
    def test_table_equals_the_oracle_table(self, workload, pair, streamed):
        planned = assert_table_is_the_oracles(
            *PLAN_WORKLOADS[workload], *pair, streamed
        )
        if workload == "structgrid":
            # oracle == oracle proves nothing: the probe chain batched
            assert planned.collect.n_plan_blocks >= 10

    @pytest.mark.parametrize("entry", load_corpus(), ids=lambda e: e.name)
    def test_corpus_table_equals_the_oracle_table(self, entry):
        """Every corpus program, at each of its first five polls."""
        for polls in range(1, 6):
            if stopped(compiled(entry.source), polls=polls) is None:
                break
            for pair in PLAN_ARCH_PAIRS:
                for streamed in MODES:
                    assert_table_is_the_oracles(
                        entry.source, polls, *pair, streamed
                    )
        assert polls > 1, "the entry never reached a poll-point"

    @pytest.mark.parametrize("streamed", MODES, ids=MODE_IDS)
    def test_record_after_a_batch_is_its_last_nodes(self, streamed):
        """Global, stack and multi-unit heads of evenly spaced heap
        chains: the batches commit, and each trailing NULL is booked to
        ``(struct node, heap)`` as the oracle books it."""
        stats = assert_table_is_the_oracles(
            HEADED_CHAINS, 1, DEC5000, SPARC20, streamed
        )
        chained = 12 + 9 + (8 + 9 + 10) + (8 + 8)
        assert stats.collect.n_plan_blocks > chained - 7  # all seven batched
        rows = {(r["type"], r["class"]): r for r in stats.attribution["rows"]}
        heap = rows[("struct node", "heap")]
        assert heap["blocks"] == heap["restore_blocks"] == chained + 1
        # a head's own bytes: record header and one int, nothing else
        head = rows[("struct node", "global")]["bytes"]
        assert head == 7 + 4
        # ... a stack id ships its ``b`` as well
        assert rows[("struct node", "stack")]["bytes"] == head + 4
        # ... ``heads`` has a count and one int more, and each chain ends
        # in a NULL
        assert heap["bytes"] == chained * head + (head + 4 + 4) + 7

    def test_precopy_scopes_partition_with_plans_on(self):
        """The snapshot round keeps its plans under attribution; each
        scope's byte column still partitions that scope's payload."""
        source, polls = PLAN_WORKLOADS["structgrid"]
        proc = stopped(compiled(source), polls=polls)
        _, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=Channel(LOOPBACK), attribution=True,
            precopy=True,
        )
        attr = stats.attribution
        for table in (attr, *attr["scopes"].values()):
            assert sum(r["bytes"] for r in table["rows"]) == table["payload_bytes"]
        snapshot = attr["scopes"]["precopy"]
        assert row_of(snapshot, "struct probe")["codec"] > 0

    def test_deep_grid_migrates_at_default_recursion_limit(self):
        """An attributed migration must succeed wherever the plain one
        does: the 400-probe chain is flattened by its plan either way."""
        proc = stopped(compiled(structgrid_source(512, 512)), polls=400)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            dest, stats = MigrationEngine().migrate(
                proc, SPARC20, channel=Channel(LOOPBACK), attribution=True
            )
        finally:
            sys.setrecursionlimit(limit)
        assert row_of(stats.attribution, "struct probe")["blocks"] == 400
        assert dest.run().status == "exit"


class TestTypeInfoLabel:
    def test_label_is_cached(self, prog):
        proc = Process(prog, DEC5000)
        proc.start()
        info = next(iter(proc.ti._infos.values()), None)
        if info is None:  # registry is lazy; force one record
            info = proc.ti.info(next(iter(prog.wire_type_ids())))
        first = info.label
        assert first == str(info.ctype)
        assert info.label is first
