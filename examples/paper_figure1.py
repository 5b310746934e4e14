#!/usr/bin/env python
"""The paper's §3.2 illustrative example (Figure 1), live.

Runs the Figure 1(a) program to the paper's snapshot point (inside
``foo``, right before the malloc, with the main loop four iterations
deep), prints the MSR graph G = (V, E) — compare with Figure 1(b) —
then migrates the process at exactly that point.

Run:  python examples/paper_figure1.py
"""

import repro
from repro.msr.model import build_msr_graph
from repro.msr.msrlt import BlockKind

SOURCE = r"""
struct node {
    float data;
    struct node *link;
};
struct node *first, *last;

void foo(struct node **p, int **q) {
    migrate_here();  /* the paper's snapshot: right before this malloc */
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
    printf("a=%d first->data=%.1f last->data=%.1f\n", a, first->data, last->data);
    return 0;
}
"""


def main() -> None:
    program = repro.compile_program(SOURCE, poll_strategy="user")

    # run to the paper's snapshot: the 5th call to foo
    proc = repro.Process(program, repro.DEC5000)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = 5
    assert proc.run().status == "poll"
    proc.register_stack_blocks()

    # roots: foo's locals, main's locals, the globals — collector order
    roots = []
    for depth in range(len(proc.frames) - 1, -1, -1):
        fir = program.functions[proc.frames[depth].func_idx]
        for var_idx in range(len(fir.norm.variables)):
            roots.append(proc.msrlt.lookup_logical((BlockKind.STACK, depth, var_idx)))
    for idx, info in enumerate(program.globals):
        if not info.is_string and not info.is_hidden:
            roots.append(proc.msrlt.lookup_logical((BlockKind.GLOBAL, idx, 0)))

    graph = build_msr_graph(proc, roots)

    print("MSR graph at the paper's snapshot (compare Figure 1(b)):")
    print(f"  |V| = {len(graph.vertices)} memory blocks, "
          f"|E| = {len(graph.edges)} pointer edges, "
          f"{graph.n_null_pointers} NULL pointers")
    census = graph.segment_census()
    print(f"  segments: {census['global']} global, {census['stack']} stack, "
          f"{census['heap']} heap (the paper's addr1..addr4)")
    print()
    print("  vertices (DFS discovery order):")
    for logical, block in graph.vertices.items():
        seg = BlockKind.NAMES[logical[0]]
        label = block.name or f"addr{logical[1] + 1}"
        print(f"    v: {label:10s} [{seg:6s}] {block.elem_type}, {block.size} bytes")
    print()
    print("  edges:")
    names = {l: (b.name or f"addr{l[1] + 1}") for l, b in graph.vertices.items()}
    for e in graph.edges:
        print(f"    e: {names[e.src]:10s} -> {names[e.dst]}"
              + (f" (+{e.dst_off} bytes)" if e.dst_off else ""))

    # now actually migrate at this exact point and let it finish
    payload, cinfo = repro.collect_state(proc)
    dest = repro.Process(program, repro.SPARC20)
    repro.restore_state(program, payload, dest)
    dest.run()
    print()
    print(f"migrated at the snapshot ({len(payload)} wire bytes, "
          f"{cinfo.stats.n_blocks} blocks);")
    print("resumed on the SPARC:", dest.stdout.strip())


if __name__ == "__main__":
    main()
