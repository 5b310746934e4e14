"""Backward live-variable analysis on function IR.

The paper's pre-compiler computes, at every poll-point, the set of *live
variables* "whose data values are needed for computation beyond the
poll-point"; only those are collected during a migration.  We run the
classic backward dataflow at the IR level, where the compiler's fused
variable-access opcodes give exact use/def information:

- ``LDL (var, kind)``  — use
- ``STL (var, kind)``  — def
- ``LEA_L var``        — the variable's *address* escapes; it may be read
  or written through pointers we cannot track, so it is conservatively
  treated as live everywhere in the function (this also covers arrays and
  structs, which are always accessed through their address).

Globals are not part of this analysis: they are unconditionally part of
the collected memory state (the paper's example saves global ``first``
from ``main`` the same way).

The result maps every *resume pc* — the instruction after each ``POLL``
and after each ``CALL`` — to the ordered tuple of live variable indices.
Those are exactly the records the collection library writes for a frame,
and the restoration library reads back (both sides compute the same
tables from the same program).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import build_blocks
from repro.vm.ir import Instr, Op

__all__ = ["LivenessResult", "compute_liveness"]


@dataclass
class LivenessResult:
    """Per-function liveness summary."""

    #: variables whose address escapes (always treated as live)
    address_taken: frozenset[int]
    #: live-in variable set per instruction pc
    live_in: list[frozenset[int]]
    #: resume pc -> ordered live variable indices (address-taken included);
    #: keyed for every pc following a POLL or CALL instruction
    resume_live: dict[int, tuple[int, ...]] = field(default_factory=dict)


def _use_def(instr: Instr) -> tuple[int | None, int | None]:
    """(use var, def var) of one instruction (at most one each)."""
    op, a, _b = instr
    if op == Op.LDL:
        return a[0], None
    if op == Op.STL:
        return None, a[0]
    return None, None


def compute_liveness(code: list[Instr], nvars: int, save_all: bool = False) -> LivenessResult:
    """Run the analysis over one function's neutral *code*.

    ``save_all=True`` is the ablation mode: every variable is considered
    live at every resume point (what a migration system without liveness
    analysis would have to do — benchmarked in E6/ablations).
    """
    address_taken = frozenset(
        instr[1] for instr in code if instr[0] == Op.LEA_L
    )

    if save_all:
        everything = frozenset(range(nvars))
        live_in = [everything] * len(code)
        result = LivenessResult(address_taken=everything, live_in=live_in)
        _fill_resume(result, code, nvars, everything)
        return result

    blocks = build_blocks(code)
    order = sorted(blocks)  # iterate in reverse pc order for fast convergence

    # block-level use/def summaries
    use_b: dict[int, set[int]] = {}
    def_b: dict[int, set[int]] = {}
    for start, block in blocks.items():
        uses: set[int] = set()
        defs: set[int] = set()
        for pc in range(block.start, block.end):
            u, d = _use_def(code[pc])
            if u is not None and u not in defs:
                uses.add(u)
            if d is not None:
                defs.add(d)
        use_b[start] = uses
        def_b[start] = defs

    live_out: dict[int, set[int]] = {s: set() for s in blocks}
    live_in_b: dict[int, set[int]] = {s: set() for s in blocks}
    changed = True
    while changed:
        changed = False
        for start in reversed(order):
            block = blocks[start]
            out: set[int] = set()
            for s in block.succ:
                out |= live_in_b[s]
            inn = use_b[start] | (out - def_b[start])
            if out != live_out[start] or inn != live_in_b[start]:
                live_out[start] = out
                live_in_b[start] = inn
                changed = True

    # per-instruction live-in by walking each block backwards
    live_in: list[frozenset[int]] = [frozenset()] * len(code)
    for start, block in blocks.items():
        live = set(live_out[start])
        for pc in range(block.end - 1, block.start - 1, -1):
            u, d = _use_def(code[pc])
            if d is not None:
                live.discard(d)
            if u is not None:
                live.add(u)
            live_in[pc] = frozenset(live)

    result = LivenessResult(address_taken=address_taken, live_in=live_in)
    _fill_resume(result, code, nvars, address_taken)
    return result


def _fill_resume(
    result: LivenessResult, code: list[Instr], nvars: int, always: frozenset[int]
) -> None:
    for pc, instr in enumerate(code):
        if instr[0] in (Op.POLL, Op.CALL) and pc + 1 < len(code):
            live = set(result.live_in[pc + 1]) | set(always)
            result.resume_live[pc + 1] = tuple(sorted(v for v in live if v < nvars))
