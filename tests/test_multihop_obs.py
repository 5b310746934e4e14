"""Multi-hop observability: one migration chain, one trace.

A process migrating A→B→C produces one observation per hop.  With each
hop adopting the previous hop's trace context
(:func:`repro.obs.continuation_context` →
``MigrationEngine.migrate(..., adopt_trace=...)``), the hops share a
single trace id and their merged JSONL lines form ONE connected span
tree: hop N+1's root is parented (via ``attrs.remote_parent``) under
the attempt span that conducted hop N's transfer.

The same chain also pins the attribution contract per hop: on a clean
link every hop's per-type rows (framing residual included) partition
its payload bytes exactly.
"""

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20
from repro.migration.engine import MigrationEngine
from repro.obs import continuation_context, validate_trace_lines
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
    """Run DEC5000 → ALPHA → SPARC20 with trace adoption; return the
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

    ctx = continuation_context(hop1)
    assert ctx is not None
    hop1_dest.migration_pending = True
    hop1_dest.migrate_after_polls = 3
    assert hop1_dest.run().status == "poll"
    hop2_dest, hop2 = engine.migrate(
        hop1_dest, SPARC20, attribution=True, adopt_trace=ctx
    )
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

    def test_hops_share_one_trace_id(self, chain):
        hop1, hop2 = chain["hops"]
        assert hop1.obs.tracer.trace_id == hop2.obs.tracer.trace_id

    def test_each_hop_exports_valid_schema(self, chain):
        for stats in chain["hops"]:
            validate_trace_lines(stats.obs.to_jsonl())

    def test_merged_spans_form_one_connected_tree(self, chain):
        """Merge both hops' span lines: exactly one true root, every
        other span reachable from it via parent_id or remote_parent."""
        hop1, hop2 = chain["hops"]
        spans = _span_lines(hop1) + _span_lines(hop2)
        by_id = {s["span_id"]: s for s in spans}
        assert len(by_id) == len(spans), "span ids must be globally unique"

        roots = [s for s in spans if s["parent_id"] == -1]
        true_roots = [
            s for s in roots if "remote_parent" not in s.get("attrs", {})
        ]
        adopted = [s for s in roots if "remote_parent" in s.get("attrs", {})]
        assert len(true_roots) == 1  # hop 1's root: the chain's only root
        assert len(adopted) == 1  # hop 2's root joins, doesn't start over

        # the adopted root's remote parent is a real span of hop 1 —
        # specifically the attempt span that conducted the transfer
        remote_parent = adopted[0]["attrs"]["remote_parent"]
        assert remote_parent in by_id
        assert by_id[remote_parent]["name"] == "attempt"
        assert any(s["span_id"] == remote_parent for s in _span_lines(hop1))

        # full connectivity: every span walks up to the single true root
        def climbs_to_root(span, hops_left=50):
            while hops_left:
                hops_left -= 1
                parent = span["parent_id"]
                if parent == -1:
                    attrs = span.get("attrs", {})
                    if "remote_parent" in attrs:
                        span = by_id[attrs["remote_parent"]]
                        continue
                    return span is true_roots[0]
                span = by_id[parent]
            return False

        assert all(climbs_to_root(s) for s in spans)

    def test_restore_joined_on_second_hop(self, chain):
        """Hop 2's restore span sits under hop 2's attempt span, in the
        tree hop 2's adopted root opens: it joins the chain's trace."""
        hop2 = chain["hops"][1]
        spans = _span_lines(hop2)
        by_id = {s["span_id"]: s for s in spans}
        (restore,) = [s for s in spans if s["name"] == "restore"]
        attempt = by_id[restore["parent_id"]]
        assert attempt["name"] == "attempt"
        assert "remote_parent" in by_id[attempt["parent_id"]]["attrs"]


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
