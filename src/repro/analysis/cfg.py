"""Control-flow graph over function IR.

Works on the *neutral* instruction list of one function (see
:mod:`repro.vm.ir`).  Used by the liveness analysis and by tests that
assert structural properties of compiled code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vm.ir import Instr, Op

__all__ = ["successors", "BasicBlock", "build_blocks"]


def successors(code: list[Instr], pc: int) -> tuple[int, ...]:
    """Successor pcs of the instruction at *pc*."""
    op, a, _b = code[pc]
    if op == Op.JMP:
        return (a,)
    if op in (Op.JZ, Op.JNZ):
        return (a, pc + 1)
    if op in (Op.RET, Op.HALT):
        return ()
    return (pc + 1,)


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run."""

    start: int
    end: int  # exclusive
    succ: tuple[int, ...] = ()  # start pcs of successor blocks
    pred: list[int] = field(default_factory=list)

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end


def build_blocks(code: list[Instr]) -> dict[int, BasicBlock]:
    """Partition *code* into basic blocks keyed by start pc."""
    if not code:
        return {}
    leaders = {0}
    for pc, instr in enumerate(code):
        op = instr[0]
        if op in (Op.JMP, Op.JZ, Op.JNZ):
            leaders.add(instr[1])
            if pc + 1 < len(code):
                leaders.add(pc + 1)
        elif op in (Op.RET, Op.HALT):
            if pc + 1 < len(code):
                leaders.add(pc + 1)
    ordered = sorted(leaders)
    blocks: dict[int, BasicBlock] = {}
    for i, start in enumerate(ordered):
        end = ordered[i + 1] if i + 1 < len(ordered) else len(code)
        blocks[start] = BasicBlock(start=start, end=end)
    for block in blocks.values():
        last = block.end - 1
        block.succ = tuple(s for s in successors(code, last) if s in blocks)
        # successors that jump into the middle of a block cannot happen:
        # every jump target is a leader by construction
    for block in blocks.values():
        for s in block.succ:
            blocks[s].pred.append(block.start)
    return blocks
