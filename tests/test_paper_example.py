"""The paper's §3.2 illustrative example (Figure 1), reproduced exactly.

The paper's program builds, by the time of the snapshot (right before the
``malloc`` in ``foo`` on the 5th loop iteration), an MSR graph with 12
vertices: globals ``first``/``last``, ``main``'s locals ``i``/``a``/``b``/
``parray``, four heap nodes ``addr1..addr4``, and ``foo``'s params
``p``/``q``.  We stop the program at the same point, build the MSR graph,
and assert its structure (experiment E7 of DESIGN.md).
"""

import struct

import pytest

from repro.arch import DEC5000, SPARC20
from repro.migration.engine import collect_state, restore_state
from repro.msr.model import build_msr_graph
from repro.msr.msrlt import BlockKind
from repro.vm.process import Process
from repro.vm.program import compile_program

# Figure 1(a), transcribed with one change: the snapshot point (line 20,
# the malloc in foo) is expressed as an explicit migrate_here() at foo's
# entry, since that is exactly where the paper takes its snapshot.
PAPER_FIGURE1 = """
struct node {
    float data;
    struct node *link;
};
struct node *first, *last;

void foo(struct node **p, int **q) {
    migrate_here();  /* paper snapshot: right before the malloc below */
    *p = (struct node *) malloc(sizeof(struct node));
    (*p)->data = 10.0;
    (**q)++;
}

int main() {
    int i;
    int a, *b;
    struct node *parray[10];

    a = 1;
    b = &a;
    for (i = 0; i < 10; i++) {
        foo(parray + i, &b);
        first = parray[0];
        last = parray[i];
        first->link = last;
        if (i > 0) parray[i]->link = parray[i - 1];
    }
    printf("a=%d first=%.1f last=%.1f\\n", a, first->data, last->data);
    return 0;
}
"""


@pytest.fixture(scope="module")
def snapshot():
    """The program stopped at the paper's snapshot point (5th call)."""
    prog = compile_program(PAPER_FIGURE1, poll_strategy="user")
    proc = Process(prog, DEC5000)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = 5  # "the for loop ... executed four times"
    result = proc.run()
    assert result.status == "poll"
    proc.register_stack_blocks()
    return proc


def _graph(proc):
    msrlt = proc.msrlt
    roots = []
    # roots: foo's and main's locals, then the globals — the collector's order
    for depth in range(len(proc.frames) - 1, -1, -1):
        fir = proc.program.functions[proc.frames[depth].func_idx]
        for var_idx in range(len(fir.norm.variables)):
            roots.append(msrlt.lookup_logical((BlockKind.STACK, depth, var_idx)))
    for idx, info in enumerate(proc.program.globals):
        if not info.is_string and not info.is_hidden:
            roots.append(msrlt.lookup_logical((BlockKind.GLOBAL, idx, 0)))
    return build_msr_graph(proc, roots)


class TestFigure1Graph:
    def test_twelve_paper_vertices(self, snapshot):
        """v1..v12 of Figure 1(b) are all present."""
        graph = _graph(snapshot)
        names = {
            b.name
            for b in graph.vertices.values()
            if b.logical[0] != BlockKind.HEAP
        }
        # globals v1, v2; main's locals v3..v6; foo's params v11, v12
        assert {"first", "last", "i", "a", "b", "parray", "p", "q"} <= names
        heap_nodes = [
            b for b in graph.vertices.values() if b.logical[0] == BlockKind.HEAP
        ]
        # v7..v10: addr1..addr4 (4 completed iterations)
        assert len(heap_nodes) == 4

    def test_segments_match_figure(self, snapshot):
        graph = _graph(snapshot)
        census = graph.segment_census()
        assert census["heap"] == 4
        assert census["global"] >= 2  # first, last (+ runtime cells)

    def test_edge_structure(self, snapshot):
        """Spot-check the paper's edges: e1 (first->addr1), e2 (last->addr4),
        e9/e10 (b and q's target pointing at a), e8 (p into parray)."""
        graph = _graph(snapshot)
        by_name = {b.name: b for b in graph.vertices.values() if b.name}

        def targets(name):
            return {e.dst for e in graph.out_edges(by_name[name].logical)}

        # first and last point at heap nodes (addr1, addr4)
        (first_t,) = targets("first")
        (last_t,) = targets("last")
        assert first_t[0] == BlockKind.HEAP and last_t[0] == BlockKind.HEAP
        assert first_t != last_t

        # b points at a (e9)
        (b_t,) = targets("b")
        assert graph.vertices[b_t].name == "a"

        # p points into parray (e8), q points at b (its edge e...)
        (p_t,) = targets("p")
        assert graph.vertices[p_t].name == "parray"
        (q_t,) = targets("q")
        assert graph.vertices[q_t].name == "b"

    def test_parray_fans_out_to_heap(self, snapshot):
        graph = _graph(snapshot)
        by_name = {b.name: b for b in graph.vertices.values() if b.name}
        heap_targets = {
            e.dst
            for e in graph.out_edges(by_name["parray"].logical)
            if e.dst[0] == BlockKind.HEAP
        }
        assert len(heap_targets) == 4  # e3..e6

    def test_dfs_from_p_visits_paper_order(self, snapshot):
        """§3.2: collecting v11 (p) saves v11, then parray (via e8), then
        dives into the heap nodes — before anything else."""
        proc = snapshot
        depth_foo = len(proc.frames) - 1
        fir = proc.program.functions[proc.frames[depth_foo].func_idx]
        p_idx = fir.norm.var_index["p"]
        p_block = proc.msrlt.lookup_logical((BlockKind.STACK, depth_foo, p_idx))
        graph = build_msr_graph(proc, [p_block])
        order = [b.name or "heap" for b in graph.vertices.values()]
        assert order[0] == "p"
        assert order[1] == "parray"
        assert order[2] == "heap"  # first heap node reached through parray

    def test_to_networkx_export(self, snapshot):
        graph = _graph(snapshot)
        g = graph.to_networkx()
        assert g.number_of_nodes() == len(graph.vertices)
        assert g.number_of_edges() > 0
        import networkx as nx

        # the pointer graph from the roots is weakly connected to parray
        assert any(data["name"] == "parray" for _, data in g.nodes(data=True))


class TestFigure1Migration:
    def test_migrate_at_paper_snapshot(self, snapshot_factory=None):
        """Migrating at the paper's exact snapshot point and resuming on
        the SPARC yields the untouched run's output."""
        prog = compile_program(PAPER_FIGURE1, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()

        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 5
        assert proc.run().status == "poll"
        payload, _ = collect_state(proc)
        dest = Process(prog, SPARC20)
        restore_state(prog, payload, dest)
        dest.run()
        assert dest.stdout == base.stdout
        assert "a=11" in dest.stdout  # a = 1 + one (**q)++ per foo call

    def test_collection_dedup_of_first(self):
        """§3.2: by the time main's `first` is collected, its target
        (addr1) is already visited — only a REF is emitted."""
        prog = compile_program(PAPER_FIGURE1, poll_strategy="user")
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 5
        proc.run()
        payload, cinfo = collect_state(proc)
        # global 0, `first`: its own BLOCK record, holding a REF to addr1
        # (heap serial 0)
        first = struct.pack(">IBI", 0, 0x02, 0) + b"\x09" + bytes(8)
        assert payload.count(first) == 1
        dest = Process(prog, SPARC20)
        rinfo = restore_state(prog, payload, dest)
        # exactly 4 heap allocations on the destination — no duplication
        # despite first/last/parray/link all reaching the same nodes
        assert rinfo.stats.n_heap_allocs == 4


class TestFigure1Payload:
    """The §3.2 walk-through as wire bytes: the payload of the snapshot,
    decoded by hand against the record grammar of ``repro.msr.wire`` and
    written down record by record.  The collector must produce exactly
    these bytes, and a restorer fed these bytes must resume to the
    untouched run's output."""

    @staticmethod
    def golden(type_id) -> bytes:
        """Everything after the payload header.  *type_id* maps a C type
        to its wire id (the one thing the program's compiler decides).

        Leads: tag 1 REF / 2 BLOCK, | kind << 2 (0 global, 1 stack, 2
        heap), | 0x10 heap serial's step follows, | 0x20 count follows, |
        0x40 ordinal follows, | 0x80 type id follows.  The type travels
        only where the record's context does not imply it: a root implies
        its own declared type, a pointer its declared target.  A heap
        serial travels only where it is not ``last + stride`` of the heap
        ``BLOCK`` records before it, ``(-1, 1)`` before the first, and
        then as its i16 step ``serial - last``, the new stride.  A
        stack id is (depth, variable): ``main`` is depth 0 with i, a, b,
        parray = 0..3; ``foo`` is depth 1 with p, q = 0, 1."""
        u16, u32 = struct.Struct(">H").pack, struct.Struct(">I").pack
        i16 = struct.Struct(">h").pack
        ten = struct.pack(">f", 10.0)

        def heap_node(step=None):  # BLOCK | heap, a ``struct node *``'s target
            if step is None:  # the serial the walk implies: 1 byte
                return b"\x0a" + ten
            return b"\x1a" + i16(step) + ten  # 3 bytes

        def heap_ref(serial):  # REF | heap, ordinal 0: 9 bytes
            return b"\x09" + u32(serial) + u32(0)

        def main_ref(var):  # REF | stack, ordinal 0: 13 bytes
            return b"\x05" + u32(0) + u32(var) + u32(0)

        return b"".join([
            # -- foo's frame (innermost first): two live variables
            u16(2),
            # p: BLOCK | stack (1, 0), a root: its ``struct node **`` is
            # implied ...
            u16(0), b"\x06", u32(1), u32(0),
            # ... aimed at parray[4]: BLOCK | stack | ordinal | type (0,
            # 3), a ``struct node * [10]`` where ``struct node *`` is
            # implied, ordinal 4
            b"\xc6", u32(0), u32(3), u16(type_id["struct node * [10]"]), u32(4),
            # parray[0] -> addr1, whose link is last (addr4), then down the
            # links addr3, addr2, and back to addr1: a REF closes the cycle.
            # Serials 0 (-1 + 1: implied), 3 (step 3), 2 (step -1), 1
            # (2 - 1: implied)
            heap_node(), heap_node(3), heap_node(-1), heap_node(), heap_ref(0),
            # parray[1..3]: visited by now; parray[4..9]: not yet assigned
            heap_ref(1), heap_ref(2), heap_ref(3), bytes(6),
            # q: BLOCK | stack (1, 1) -> b: BLOCK | stack (0, 2) -> a:
            # BLOCK | stack (0, 1), the int 5; each the type its pointer
            # declares
            u16(1), b"\x06", u32(1), u32(1),
            b"\x06", u32(0), u32(2),
            b"\x06", u32(0), u32(1), u32(5),
            # -- main's frame: i is new, the other three are REFs
            u16(4),
            u16(0), b"\x06", u32(0), u32(0), u32(4),
            u16(1), main_ref(1),
            u16(2), main_ref(2),
            u16(3), main_ref(3),
            # -- globals: first -> addr1, last -> addr4, both visited
            u32(4),
            u32(0), b"\x02", u32(0), heap_ref(0),
            u32(1), b"\x02", u32(1), heap_ref(3),
            # the runtime's rand() state and the format string: BLOCK |
            # global (a char [27] is one element: no count field)
            u32(2), b"\x02", u32(2), u32(1),
            u32(3), b"\x02", u32(3),
            b"a=%d first=%.1f last=%.1f\n\x00",
        ])

    def test_payload_is_the_hand_decoded_one_and_restores(self):
        prog = compile_program(PAPER_FIGURE1, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()
        proc = Process(prog, DEC5000)
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = 5
        assert proc.run().status == "poll"
        payload, info = collect_state(proc)
        # header: magic, version, frame table (main, then foo)
        head = 4 + 1 + 2 + 8 * len(info.header.frames)
        assert payload[:5] == b"MIGR\x06" and len(info.header.frames) == 2
        golden = self.golden({str(t): i for i, t in enumerate(prog.types)})
        assert payload[head:] == golden
        # 316 while every BLOCK spelled out its type: 13 of the 14 imply
        # it; 290 while every heap BLOCK spelled out its serial: 2 of the
        # 4 continue the stride; 282 while the other 2 spelled it as a u32
        assert len(golden) == 278
        dest = Process(prog, SPARC20)
        restore_state(prog, payload[:head] + golden, dest)
        dest.run()
        assert dest.stdout == base.stdout
