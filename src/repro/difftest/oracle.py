"""The differential oracle: canonical fingerprints of final memory.

The harness's correctness claim is that a migrated run is observationally
equivalent to a never-migrated one.  Bit-equal stdout covers everything
the program *computed*; the fingerprint additionally covers everything
the program *left behind* — the shape and contents of the reachable
memory graph at exit — so a collector bug that corrupts a block the
program happens not to print is still caught.

Fingerprints must compare **across architectures**, so nothing
host-specific may leak in:

- blocks are identified by *canonical index* — their position in the
  sorted order of their machine-independent logical ids, the very names
  the MSRLT exists to keep stable across migration (the restorer passes
  source heap serials through so logical ids keep matching) — never by
  address, and never by traversal order;
- pointer values become ``(canonical index, normalized offset)`` where
  the offset is ``(unit ordinal, cell ordinal)`` rather than a byte
  count (struct padding differs per architecture); a one-past-end
  pointer becomes the ``"end"`` sentinel;
- ``char`` cells are reduced to their unsigned byte (ALPHA's plain
  ``char`` is unsigned);
- pointers into the stack, or to addresses the MSRLT no longer maps
  (a global left dangling after ``main`` returned), normalize to
  ``"stack/dead"`` — the run-to-completion fingerprint only asserts on
  globals and reachable heap, because stdout already witnessed every
  stack-held value the program used.

An address names one block on every machine — no block starts where
another ends (DESIGN §2) — so a one-past-end pointer is ``(i, end)`` in
every run and two equivalent runs have *equal* fingerprints.
"""

from __future__ import annotations

from repro.msr.msrlt import BlockKind, MSRLTError

__all__ = ["heap_fingerprint", "fingerprint_diff"]

#: pointer-cell sentinels
_NULL = ("null",)
_END = ("end",)
_DEAD = ("stack/dead",)


def _global_roots(process):
    """The process's global blocks in declaration order (the collector's
    root order)."""
    roots = []
    for idx in range(len(process.program.globals)):
        logical = (BlockKind.GLOBAL, idx, 0)
        if process.msrlt.has_logical(logical):
            roots.append(process.msrlt.lookup_logical(logical))
    return roots


def _normalize_offset(block, info, off: int):
    """A byte offset inside *block* as an arch-independent position."""
    if off == block.size:
        return _END
    unit = off // info.unit_size if info.unit_size else 0
    rem = off - unit * info.unit_size
    for ci, cell in enumerate(info.cells):
        if cell.offset == rem:
            return (unit, ci)
    # interior of a cell or padding: keep the raw remainder (generated
    # programs never produce this; hand-written ones might)
    return (unit, "byte", rem)


def heap_fingerprint(process) -> list[tuple]:
    """The canonical fingerprint of *process*'s final reachable memory.

    Returns a list of per-block tuples in canonical (logical id) order::

        (idx, segment, name, count, (cell values...))
    """
    memory = process.memory
    msrlt = process.msrlt
    ti = process.ti

    # pass 1: the reachable set.  Traversal order is irrelevant — the
    # canonical order is by logical id below — so a plain worklist
    # suffices.
    seen: set[tuple] = set()
    blocks: list = []
    work = list(_global_roots(process))
    while work:
        block = work.pop()
        logical = tuple(block.logical)
        if logical in seen:
            continue
        seen.add(logical)
        blocks.append(block)
        info = ti.info_for(block.elem_type)
        if not info.has_pointers:
            continue
        for unit in range(info.units_in(block.count)):
            base = block.addr + unit * info.unit_size
            for cell in info.cells:
                if cell.kind != "ptr":
                    continue
                value = memory.load("ptr", base + cell.offset)
                if value == 0:
                    continue
                try:
                    target, _off = msrlt.lookup_addr(value)
                except MSRLTError:
                    continue
                if target.logical[0] == BlockKind.STACK:
                    continue
                work.append(target)

    # canonical order: machine-independent logical ids, which the MSRLT
    # preserves across migration (globals by declaration index, heap by
    # the serial the restorer carries over)
    blocks.sort(key=lambda b: tuple(b.logical))
    order = {tuple(b.logical): i for i, b in enumerate(blocks)}

    # pass 2: extract cell values with the complete canonical map
    out: list[tuple] = []
    for idx, block in enumerate(blocks):
        info = ti.info_for(block.elem_type)
        values: list = []
        for unit in range(info.units_in(block.count)):
            base = block.addr + unit * info.unit_size
            for cell in info.cells:
                addr = base + cell.offset
                if cell.kind == "ptr":
                    raw = memory.load("ptr", addr)
                    if raw == 0:
                        values.append(_NULL)
                        continue
                    try:
                        target, off = msrlt.lookup_addr(raw)
                    except MSRLTError:
                        values.append(_DEAD)
                        continue
                    if target.logical[0] == BlockKind.STACK:
                        values.append(_DEAD)
                        continue
                    tinfo = ti.info_for(target.elem_type)
                    values.append(
                        (order[tuple(target.logical)],
                         _normalize_offset(target, tinfo, off))
                    )
                elif cell.kind in ("char", "uchar"):
                    values.append(memory.load(cell.kind, addr) & 0xFF)
                else:
                    values.append(memory.load(cell.kind, addr))
        segment = BlockKind.NAMES[block.logical[0]]
        name = block.name if segment == "global" else None
        out.append((idx, segment, name, block.count, tuple(values)))
    return out


def fingerprint_diff(a: list[tuple], b: list[tuple]) -> str | None:
    """Human-readable first divergence between two fingerprints, or
    ``None`` when they are equal."""
    if a == b:
        return None
    if len(a) != len(b):
        return (
            f"reachable block count differs: {len(a)} vs {len(b)} "
            f"(extra: {[t[:4] for t in (a if len(a) > len(b) else b)[min(len(a), len(b)):]]})"
        )
    for (ia, sa, na, ca, va), (ib, sb, nb, cb, vb) in zip(a, b):
        head_a, head_b = (ia, sa, na, ca), (ib, sb, nb, cb)
        if head_a != head_b:
            return f"block #{ia} identity differs: {head_a} vs {head_b}"
        if va != vb:
            for cell_i, (x, y) in enumerate(zip(va, vb)):
                if x != y:
                    return (
                        f"block #{ia} ({sa} {na or ''} count={ca}) "
                        f"cell {cell_i}: {x!r} vs {y!r}"
                    )
            if len(va) != len(vb):
                return (
                    f"block #{ia} cell count differs: "
                    f"{len(va)} vs {len(vb)}"
                )
    return None
