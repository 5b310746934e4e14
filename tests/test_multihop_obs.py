"""Multi-hop observability: one migration chain, one trace per hop.

A process migrating A→B→C makes one migration per hop, so one
observation and one complete trace per hop: each validates on its own,
its spans form one tree under its own root, and the restore side sits
under the attempt that carried it.

The same chain also pins the attribution contract per hop: on a clean
link every hop's per-type rows (framing residual included) partition
its payload bytes exactly.
"""

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20
from repro.migration.engine import MigrationEngine
from repro.obs import validate_trace_lines
from repro.vm.process import Process
from repro.vm.program import compile_program

SOURCE = """
struct node { int key; double w; struct node *next; };
struct node *head;
int acc;

int main() {
    int i;
    struct node *p;
    for (i = 0; i < 12; i++) {
        struct node *e = (struct node *) malloc(sizeof(struct node));
        e->key = i * 3 + 1;
        e->w = i * 0.25;
        e->next = head;
        head = e;
        migrate_here();
    }
    for (p = head; p != NULL; p = p->next) acc = acc * 7 + p->key;
    printf("acc=%d\\n", acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def chain():
    """Run DEC5000 → ALPHA → SPARC20, observed; return the
    per-hop stats plus the final process and the un-migrated stdout."""
    program = compile_program(SOURCE, poll_strategy="user")
    base = Process(program, DEC5000)
    base.run_to_completion()

    proc = Process(program, DEC5000)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = 3
    assert proc.run().status == "poll"

    engine = MigrationEngine()
    hop1_dest, hop1 = engine.migrate(proc, ALPHA, attribution=True)

    hop1_dest.migration_pending = True
    hop1_dest.migrate_after_polls = 3
    assert hop1_dest.run().status == "poll"
    hop2_dest, hop2 = engine.migrate(hop1_dest, SPARC20, attribution=True)
    code = hop2_dest.run_to_completion()
    return dict(
        hops=[hop1, hop2], final=hop2_dest, exit_code=code,
        baseline_stdout=base.stdout,
    )


def _span_lines(stats):
    return [l for l in stats.obs.trace_lines() if l["event"] == "span"]


class TestSingleTraceTree:
    def test_chain_still_correct(self, chain):
        assert chain["exit_code"] == 0
        assert chain["final"].stdout == chain["baseline_stdout"]

    def test_each_hop_exports_valid_schema(self, chain):
        for stats in chain["hops"]:
            assert validate_trace_lines(stats.obs.to_jsonl()) == []

    def test_each_hop_is_its_own_tree(self, chain):
        """Each hop's spans hang under that hop's one root, and no hop
        shares a trace id with another."""
        for stats in chain["hops"]:
            spans = _span_lines(stats)
            ids = {s["span_id"] for s in spans}
            assert len(ids) == len(spans)
            assert [s["parent_id"] for s in spans].count(-1) == 1
            assert all(s["parent_id"] == -1 or s["parent_id"] in ids for s in spans)
        hop1, hop2 = chain["hops"]
        assert hop1.obs.tracer.trace_id != hop2.obs.tracer.trace_id

    def test_restore_joined_on_second_hop(self, chain):
        """Hop 2's restore span sits under hop 2's attempt span, which
        hangs under hop 2's own root."""
        hop2 = chain["hops"][1]
        spans = _span_lines(hop2)
        by_id = {s["span_id"]: s for s in spans}
        (restore,) = [s for s in spans if s["name"] == "restore"]
        attempt = by_id[restore["parent_id"]]
        assert attempt["name"] == "attempt"
        assert attempt["parent_id"] == 0 and by_id[0]["parent_id"] == -1


class TestPerHopAttribution:
    def test_rows_partition_payload_exactly(self, chain):
        """On a clean link each hop's attribution rows — per-type bytes
        plus the framing residual — sum to exactly that hop's payload:
        nothing double-counted, nothing unattributed."""
        for stats in chain["hops"]:
            summary = stats.attribution
            assert summary is not None
            total = sum(row["bytes"] for row in summary["rows"])
            assert total == summary["payload_bytes"] == stats.payload_bytes

    def test_hops_attribute_independently(self, chain):
        """Each hop profiles its own transfer; payloads differ because
        the list keeps growing between hops, and each hop's rows track
        its own payload, not a shared accumulator."""
        hop1, hop2 = chain["hops"]
        assert hop1.payload_bytes != hop2.payload_bytes
        assert hop1.attribution["payload_bytes"] == hop1.payload_bytes
        assert hop2.attribution["payload_bytes"] == hop2.payload_bytes
