"""The stack-VM executor.

A threaded interpreter over specialized instructions.  Two invariants
from :mod:`repro.vm.normalize` are asserted at runtime (they are what
makes frames migratable):

- the evaluation stack is empty at every ``POLL``;
- the caller's evaluation stack is empty at every ``CALL`` once the
  arguments are popped.

``POLL`` instructions implement the paper's poll-points: each execution
increments the poll counter (the §4.3 overhead source) and, when the
scheduler has posted a migration request, execution stops *at* the poll
point with every frame's ``pc`` already at its resume position.

Performance notes (profile-guided, per the HPC guides): the dispatch
chain is ordered by measured dynamic opcode frequency (LDL ≫ PTRADD >
ADD > PUSH > LOAD > STL …), and the variable/pointer memory accesses are
inlined against the segment windows, falling back to
:meth:`repro.vm.memory.Memory.load`/``store`` only when a window must
grow.  Semantics are identical to the Memory methods: the fast store
path relies on eval-stack values already being wrapped to their kind
(the compiler guarantees it) and falls back on ``struct.error``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.vm.builtins import BUILTINS
from repro.clang.ctypes import VoidType
from repro.vm.ir import Op, format_instr

__all__ = ["Frame", "RunResult", "Interpreter", "VMError"]


class VMError(Exception):
    """Internal VM invariant violation or illegal program behaviour."""


_BUILTIN_HANDLERS = tuple(b.handler for b in BUILTINS)
_BUILTIN_HAS_RET = tuple(not isinstance(b.sig.ret, VoidType) for b in BUILTINS)


class Frame:
    """One activation record: function, program counter, eval stack, and
    the base address of its locals in simulated stack memory."""

    __slots__ = ("func_idx", "image", "pc", "base", "saved_sp", "stack")

    def __init__(self, func_idx: int, image, base: int, saved_sp: int) -> None:
        self.func_idx = func_idx
        self.image = image  # FuncImage
        self.pc = 0
        self.base = base
        self.saved_sp = saved_sp
        self.stack: list = []


@dataclass
class RunResult:
    """Outcome of one :meth:`Interpreter.run` call."""

    status: str  # "exit" | "poll" | "steps"
    exit_code: int = 0
    poll_id: int = -1


class Interpreter:
    """Executes a process's frames until exit, poll, or step budget."""

    def __init__(self, process) -> None:
        self.process = process

    def run(self, max_steps: Optional[int] = None) -> RunResult:
        proc = self.process
        frames = proc.frames
        memory = proc.memory
        load = memory.load
        store = memory.store
        steps = 0
        budget = max_steps if max_steps is not None else -1

        # fast-path bindings: unpack/pack functions and sizes per kind,
        # plus the three segment objects for inline window access
        unp = {k: (p.unpack_from, p.size) for k, p in memory._packers.items()}
        pck = {k: (p.pack_into, p.size) for k, p in memory._packers.items()}
        sseg = memory.stack_seg
        hseg = memory.heap_seg
        gseg = memory.global_seg
        sbase, slimit = sseg.base, sseg.limit
        hbase, hlimit = hseg.base, hseg.limit

        if not frames:
            raise VMError("no frames to run")
        frame = frames[-1]
        code = frame.image.code
        stack = frame.stack
        base = frame.base
        pc = frame.pc

        try:
            while True:
                if budget >= 0 and steps >= budget:
                    frame.pc = pc
                    proc.steps += steps
                    return RunResult(status="steps")
                steps += 1

                op, a, b = code[pc]
                pc += 1

                if op == Op.LDL:
                    addr = base + a
                    up, size = unp[b]
                    off = addr - sseg.window_start
                    buf = sseg.buf
                    if 0 <= off and off + size <= len(buf):
                        stack.append(up(buf, off)[0])
                    else:
                        stack.append(load(b, addr))
                elif op == Op.PTRADD:
                    i = stack.pop()
                    stack.append(stack.pop() + int(i) * a)
                elif op == Op.ADD:
                    r = stack.pop()
                    l = stack.pop()
                    if a is None:
                        stack.append(l + r)
                    else:
                        v = (l + r) & a[0]
                        stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.PUSH:
                    stack.append(a)
                elif op == Op.LOAD:
                    addr = stack.pop()
                    if sbase <= addr < slimit:
                        seg = sseg
                    elif hbase <= addr < hlimit:
                        seg = hseg
                    else:
                        seg = gseg
                    up, size = unp[a]
                    off = addr - seg.window_start
                    buf = seg.buf
                    if 0 <= off and off + size <= len(buf) and seg.base <= addr:
                        stack.append(up(buf, off)[0])
                    else:
                        stack.append(load(a, addr))
                elif op == Op.STL:
                    addr = base + a
                    pk, size = pck[b]
                    off = addr - sseg.window_start
                    buf = sseg.buf
                    value = stack.pop()
                    if 0 <= off and off + size <= len(buf):
                        try:
                            pk(buf, off, value)
                        except struct.error:
                            # out-of-range value: delegate to the wrapping path
                            store(b, addr, value)
                    else:
                        store(b, addr, value)
                elif op == Op.MUL:
                    r = stack.pop()
                    l = stack.pop()
                    if a is None:
                        stack.append(l * r)
                    else:
                        v = (l * r) & a[0]
                        stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.JZ:
                    if not stack.pop():
                        pc = a
                elif op == Op.LT:
                    r = stack.pop()
                    stack.append(1 if stack.pop() < r else 0)
                elif op == Op.JMP:
                    pc = a
                elif op == Op.STORE:
                    addr = stack.pop()
                    store(a, addr, stack.pop())
                elif op == Op.SUB:
                    r = stack.pop()
                    l = stack.pop()
                    if a is None:
                        stack.append(l - r)
                    else:
                        v = (l - r) & a[0]
                        stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.LEA_L:
                    stack.append(base + a)
                elif op == Op.LDG:
                    up, size = unp[b]
                    off = a - gseg.window_start
                    buf = gseg.buf
                    if 0 <= off and off + size <= len(buf):
                        stack.append(up(buf, off)[0])
                    else:
                        stack.append(load(b, a))
                elif op == Op.STG:
                    store(b, a, stack.pop())
                elif op == Op.PTRSUB:
                    i = stack.pop()
                    stack.append(stack.pop() - int(i) * a)
                elif op == Op.PTRDIFF:
                    q = stack.pop()
                    p = stack.pop()
                    stack.append((p - q) // a)
                elif op == Op.OFFSET:
                    stack.append(stack.pop() + a)
                elif op == Op.DIV:
                    r = stack.pop()
                    l = stack.pop()
                    if a is None:
                        stack.append(l / r if r != 0.0 else _float_div_zero(l, r))
                    else:
                        if r == 0:
                            raise VMError("integer division by zero")
                        q = abs(l) // abs(r)
                        if (l < 0) != (r < 0):
                            q = -q
                        v = q & a[0]
                        stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.MOD:
                    r = stack.pop()
                    l = stack.pop()
                    if r == 0:
                        raise VMError("integer modulo by zero")
                    q = abs(l) // abs(r)
                    if (l < 0) != (r < 0):
                        q = -q
                    v = (l - q * r) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.EQ:
                    r = stack.pop()
                    stack.append(1 if stack.pop() == r else 0)
                elif op == Op.NE:
                    r = stack.pop()
                    stack.append(1 if stack.pop() != r else 0)
                elif op == Op.LE:
                    r = stack.pop()
                    stack.append(1 if stack.pop() <= r else 0)
                elif op == Op.GT:
                    r = stack.pop()
                    stack.append(1 if stack.pop() > r else 0)
                elif op == Op.GE:
                    r = stack.pop()
                    stack.append(1 if stack.pop() >= r else 0)
                elif op == Op.LNOT:
                    stack.append(0 if stack.pop() else 1)
                elif op == Op.NEG:
                    v = stack.pop()
                    if a is None:
                        stack.append(-v)
                    else:
                        v = (-v) & a[0]
                        stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.BAND:
                    r = stack.pop()
                    v = (stack.pop() & r) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.BOR:
                    r = stack.pop()
                    v = (stack.pop() | r) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.BXOR:
                    r = stack.pop()
                    v = (stack.pop() ^ r) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.BNOT:
                    v = (~stack.pop()) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.SHL:
                    r = stack.pop()
                    v = (stack.pop() << (r & 63)) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == Op.SHR:
                    r = stack.pop()
                    stack.append(stack.pop() >> (r & 63))
                elif op == Op.CVT:
                    v = stack.pop()
                    if a[0] == "f":
                        stack.append(float(v))
                    else:
                        try:
                            iv = int(v) & a[1]
                        except (OverflowError, ValueError):  # inf, nan
                            raise VMError(f"{v} converted to an integer") from None
                        stack.append(iv - a[1] - 1 if a[2] and iv >= a[2] else iv)
                elif op == Op.JNZ:
                    if stack.pop():
                        pc = a
                elif op == Op.CALL:
                    args = stack[len(stack) - b :] if b else []
                    if b:
                        del stack[len(stack) - b :]
                    if stack:
                        raise VMError(
                            f"eval stack not empty at CALL in {frame.image.name} "
                            f"(pc {pc - 1}) — normalization invariant broken"
                        )
                    frame.pc = pc
                    frame = proc.push_frame(a, args)
                    code = frame.image.code
                    stack = frame.stack
                    base = frame.base
                    pc = 0
                elif op == Op.CALLB:
                    nargs, extra = b
                    args = stack[len(stack) - nargs :] if nargs else []
                    if nargs:
                        del stack[len(stack) - nargs :]
                    result = _BUILTIN_HANDLERS[a](proc, args, extra)
                    if _BUILTIN_HAS_RET[a]:
                        stack.append(result)
                elif op == Op.RET:
                    value = stack.pop() if a else None
                    memory.stack_restore(frame.saved_sp)
                    frames.pop()
                    if not frames:
                        proc.steps += steps
                        return RunResult(status="exit", exit_code=int(value or 0))
                    frame = frames[-1]
                    code = frame.image.code
                    stack = frame.stack
                    base = frame.base
                    pc = frame.pc
                    if a:
                        stack.append(value)
                elif op == Op.POLL:
                    proc.polls += 1
                    if stack:
                        raise VMError(
                            f"eval stack not empty at POLL in {frame.image.name}"
                        )
                    if proc.migration_pending and proc.should_migrate_at(a):
                        frame.pc = pc  # resume position: instruction after POLL
                        proc.steps += steps
                        return RunResult(status="poll", poll_id=a)
                elif op == Op.COPYBLK:
                    dst = stack.pop()
                    src = stack.pop()
                    memory.write_bytes(dst, memory.read_bytes(src, a))
                elif op == Op.POP:
                    stack.pop()
                elif op == Op.DUP:
                    stack.append(stack[-1])
                elif op == Op.NOP:
                    pass
                else:  # pragma: no cover - defensive
                    raise VMError(f"bad opcode: {format_instr((op, a, b))}")
        except Exception:
            # leave the faulting instruction where a report can name it
            frame.pc = pc - 1
            raise


def _float_div_zero(l: float, r: float) -> float:
    """IEEE 754 semantics for float division by (possibly signed) zero."""
    import math

    if l == 0.0 or l != l:
        return float("nan")
    sign = math.copysign(1.0, l) * math.copysign(1.0, r)
    return float("inf") if sign > 0 else float("-inf")
