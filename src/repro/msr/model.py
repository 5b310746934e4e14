"""Explicit MSR graph construction: G = (V, E).

Paper §3: "we model a snapshot of a program memory space as a graph
G = (V, E) … Each vertex in the graph represents a memory block, whereas
each edge represents a relationship between two memory blocks when one of
them contains a pointer."

The migration fast path never materializes this graph (it streams the DFS
directly); this module builds it explicitly for inspection, testing, and
the paper's Figure 1 example.  :func:`MSRGraph.to_networkx` exports a
``networkx.DiGraph`` for further analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.msr.msrlt import BlockKind, MemoryBlock

__all__ = ["MSREdge", "MSRGraph", "build_msr_graph"]


@dataclass(frozen=True)
class MSREdge:
    """One pointer edge: the cell at (*src*, *src_cell*) refers to byte
    offset *dst_off* inside block *dst*."""

    src: tuple  # logical id
    src_cell: int  # flat cell ordinal of the pointer within src
    dst: tuple  # logical id
    dst_off: int  # byte offset within dst


@dataclass
class MSRGraph:
    """A snapshot of the process's reachable memory graph."""

    vertices: dict[tuple, MemoryBlock] = field(default_factory=dict)
    edges: list[MSREdge] = field(default_factory=list)
    #: pointers that were NULL (counted, not edges)
    n_null_pointers: int = 0
    #: logical ids of the roots the traversal started from
    roots: list[tuple] = field(default_factory=list)

    def vertex_names(self) -> list[str]:
        """Human-readable vertex labels in insertion (DFS) order."""
        return [b.name or str(b.logical) for b in self.vertices.values()]

    def out_edges(self, logical: tuple) -> list[MSREdge]:
        return [e for e in self.edges if e.src == tuple(logical)]

    def segment_census(self) -> dict[str, int]:
        """Vertex count per segment kind (global/stack/heap)."""
        census = {"global": 0, "stack": 0, "heap": 0}
        for block in self.vertices.values():
            census[BlockKind.NAMES[block.logical[0]]] += 1
        return census

    def total_bytes(self) -> int:
        return sum(b.size for b in self.vertices.values())

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` (vertices keyed by logical id)."""
        import networkx as nx

        g = nx.DiGraph()
        for logical, block in self.vertices.items():
            g.add_node(
                logical,
                name=block.name,
                segment=BlockKind.NAMES[logical[0]],
                size=block.size,
                ctype=str(block.elem_type),
                count=block.count,
            )
        for e in self.edges:
            g.add_edge(e.src, e.dst, cell=e.src_cell, dst_off=e.dst_off)
        return g


def build_msr_graph(process, roots: list[MemoryBlock]) -> MSRGraph:
    """Depth-first construction of the MSR graph from *roots*.

    *process* must expose ``memory``, ``msrlt``, and ``ti`` (the same
    interface the collector uses).  The traversal order matches the
    collector's exactly, so tests can assert the §3.2 example's DFS
    sequence against ``graph.vertices`` insertion order.
    """
    graph = MSRGraph(roots=[tuple(b.logical) for b in roots])
    memory = process.memory
    msrlt = process.msrlt
    ti = process.ti

    def visit(block: MemoryBlock):
        """Add *block* as a vertex; an iterator over its pointer targets
        (recording each edge as it goes), empty when the block was seen
        before or holds no pointer."""
        logical = tuple(block.logical)
        if logical in graph.vertices:
            return iter(())
        graph.vertices[logical] = block
        info = ti.info_for(block.elem_type)
        if not info.has_pointers:
            return iter(())
        return targets(block, logical, info)

    def targets(block: MemoryBlock, logical, info):
        for unit in range(info.units_in(block.count)):
            base = block.addr + unit * info.unit_size
            for ci, cell in enumerate(info.cells):
                if cell.kind != "ptr":
                    continue
                value = memory.load("ptr", base + cell.offset)
                if value == 0:
                    graph.n_null_pointers += 1
                    continue
                target, off = msrlt.lookup_addr(value)
                graph.edges.append(
                    MSREdge(
                        src=logical,
                        src_cell=unit * info.cell_count + ci,
                        dst=tuple(target.logical),
                        dst_off=off,
                    )
                )
                yield target

    # an explicit work stack, one open block per entry: a pointer chain
    # as deep as the heap costs no Python recursion
    for root in roots:
        stack = [visit(root)]
        while stack:
            target = next(stack[-1], None)
            if target is None:
                stack.pop()
            else:
                stack.append(visit(target))
    return graph
