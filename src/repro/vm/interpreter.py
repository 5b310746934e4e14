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

Performance notes (profile-guided; docs/INTERNALS.md §7 has the
numbers).  The dispatch chain compares ``op`` against opcode values
bound once at import, in order of their mean dynamic share over the
benchmark suite's four programs (linpack, bitonic, structgrid,
longlist at the suite's sizes, run to their stop poll):

    LDL 29.7 %, PUSH 13.8, OFFSET 5.9, STORE 5.9, PTRADD 5.4, ADD 5.3,
    JZ 4.9, STL 4.8, LT 3.6, LOAD 3.3, JMP 3.1, CVT 2.3, MOD 2.0,
    MUL 1.9, DIV 1.4, CALLB 1.4, CALL 1.2, RET 1.2, EQ 1.2, LEA_L 0.6,
    SUB 0.6, STG 0.3, LDG 0.3, POLL 0.2, GT 0.1; the rest 0.

The step budget is one comparison per instruction (``steps == budget``;
-1 when there is none), and the instruction count is booked once, in a
``finally``, however the run ends.  Every variable and pointer access —
``LDL``/``STL``, ``LDG``/``STG``, ``LOAD``/``STORE``, and ``CALL``'s
argument stores — is inlined against the segment windows through the
per-kind tables :class:`~repro.vm.memory.Memory` holds (built once per
data model, not per run), falling back to
:meth:`~repro.vm.memory.Memory.load`/``store`` when a window must grow
or the address is outside every segment.  Semantics are identical to
the Memory methods: the fast store path relies on eval-stack values
already being wrapped to their kind (the compiler guarantees it) and
falls back on ``struct.error``.  Under a pre-copy write barrier
(``Memory.dirty``, read once per run: it is installed and removed
between runs, never during one) ``STG`` and ``STORE`` keep the inline
path and call the tracker's ``mark`` after the pack; the fallback marks
inside ``Memory.store``.  (``STL`` and ``CALL`` never mark: the barrier
ignores the stack.)  Measured against the ``Op.X`` chain with
generic stores (interleaved, same host): ns per instruction to the stop
poll, linpack 422 → 317, bitonic 1 024 → 485, structgrid 598 → 273,
longlist 748 → 376.
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

# the opcodes as module globals, in dispatch order: ``op == LDL`` is one
# cached global load, ``op == Op.LDL`` a global load plus a class
# attribute lookup on every arm tested
(LDL, PUSH, OFFSET, STORE, PTRADD, ADD, JZ, STL, LT, LOAD, JMP, CVT, MOD,
 MUL, DIV, CALLB, CALL, RET, EQ, LEA_L, SUB, STG, LDG, POLL, GT,
 NE, LE, GE, JNZ, PTRSUB, PTRDIFF, LNOT, NEG, BAND, BOR, BXOR, BNOT, SHL,
 SHR, COPYBLK, POP, DUP, NOP) = (
    Op.LDL, Op.PUSH, Op.OFFSET, Op.STORE, Op.PTRADD, Op.ADD, Op.JZ, Op.STL,
    Op.LT, Op.LOAD, Op.JMP, Op.CVT, Op.MOD, Op.MUL, Op.DIV, Op.CALLB,
    Op.CALL, Op.RET, Op.EQ, Op.LEA_L, Op.SUB, Op.STG, Op.LDG, Op.POLL, Op.GT,
    Op.NE, Op.LE, Op.GE, Op.JNZ, Op.PTRSUB, Op.PTRDIFF, Op.LNOT, Op.NEG,
    Op.BAND, Op.BOR, Op.BXOR, Op.BNOT, Op.SHL, Op.SHR, Op.COPYBLK, Op.POP,
    Op.DUP, Op.NOP,
)


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
        budget = -1 if max_steps is None else max_steps

        # fast-path bindings: unpack/pack functions and sizes per kind,
        # plus the three segment objects for inline window access
        unp = memory._unpack
        pck = memory._pack
        # the pre-copy write barrier: in-window STORE / STG mark here,
        # everything else marks inside Memory
        mark = None if memory.dirty is None else memory.dirty.mark
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
                if steps == budget:
                    frame.pc = pc
                    return RunResult(status="steps")
                steps += 1

                op, a, b = code[pc]
                pc += 1

                if op == LDL:
                    addr = base + a
                    up, size = unp[b]
                    off = addr - sseg.window_start
                    buf = sseg.buf
                    if 0 <= off and off + size <= len(buf):
                        stack.append(up(buf, off)[0])
                    else:
                        stack.append(load(b, addr))
                elif op == PUSH:
                    stack.append(a)
                elif op == OFFSET:
                    stack.append(stack.pop() + a)
                elif op == STORE:
                    addr = stack.pop()
                    value = stack.pop()
                    if sbase <= addr < slimit:
                        seg = sseg
                    elif hbase <= addr < hlimit:
                        seg = hseg
                    else:
                        seg = gseg
                    pk, size = pck[a]
                    off = addr - seg.window_start
                    buf = seg.buf
                    if 0 <= off and off + size <= len(buf) and seg.base <= addr:
                        try:
                            pk(buf, off, value)
                        except struct.error:
                            # out-of-range value: delegate to the wrapping path
                            store(a, addr, value)
                        else:
                            if mark is not None:
                                mark(addr, size)
                    else:
                        store(a, addr, value)
                elif op == PTRADD:
                    i = stack.pop()
                    stack.append(stack.pop() + int(i) * a)
                elif op == ADD:
                    r = stack.pop()
                    l = stack.pop()
                    if a is None:
                        stack.append(l + r)
                    else:
                        v = (l + r) & a[0]
                        stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == JZ:
                    if not stack.pop():
                        pc = a
                elif op == STL:
                    addr = base + a
                    pk, size = pck[b]
                    off = addr - sseg.window_start
                    buf = sseg.buf
                    value = stack.pop()
                    if 0 <= off and off + size <= len(buf):
                        try:
                            pk(buf, off, value)
                        except struct.error:
                            store(b, addr, value)
                    else:
                        store(b, addr, value)
                elif op == LT:
                    r = stack.pop()
                    stack.append(1 if stack.pop() < r else 0)
                elif op == LOAD:
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
                elif op == JMP:
                    pc = a
                elif op == CVT:
                    v = stack.pop()
                    if a[0] == "f":
                        stack.append(float(v))
                    else:
                        try:
                            iv = int(v) & a[1]
                        except (OverflowError, ValueError):  # inf, nan
                            raise VMError(f"{v} converted to an integer") from None
                        stack.append(iv - a[1] - 1 if a[2] and iv >= a[2] else iv)
                elif op == MOD:
                    r = stack.pop()
                    l = stack.pop()
                    if r == 0:
                        raise VMError("integer modulo by zero")
                    q = abs(l) // abs(r)
                    if (l < 0) != (r < 0):
                        q = -q
                    v = (l - q * r) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == MUL:
                    r = stack.pop()
                    l = stack.pop()
                    if a is None:
                        stack.append(l * r)
                    else:
                        v = (l * r) & a[0]
                        stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == DIV:
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
                elif op == CALLB:
                    nargs, extra = b
                    args = stack[len(stack) - nargs :] if nargs else []
                    if nargs:
                        del stack[len(stack) - nargs :]
                    result = _BUILTIN_HANDLERS[a](proc, args, extra)
                    if _BUILTIN_HAS_RET[a]:
                        stack.append(result)
                elif op == CALL:
                    if len(stack) > b:
                        raise VMError(
                            f"eval stack not empty at CALL in {frame.image.name} "
                            f"(pc {pc - 1}) — normalization invariant broken"
                        )
                    frame.pc = pc
                    callee = proc.push_frame(a)
                    if b:
                        # the arguments are the callee's first locals: b STLs
                        image = callee.image
                        for kind, at, value in zip(image.var_kinds, image.var_offsets, stack):
                            addr = callee.base + at
                            pk, size = pck[kind]
                            off = addr - sseg.window_start
                            buf = sseg.buf
                            if 0 <= off and off + size <= len(buf):
                                try:
                                    pk(buf, off, value)
                                    continue
                                except struct.error:
                                    pass
                            store(kind, addr, value)
                        stack.clear()
                    frame = callee
                    code = frame.image.code
                    stack = frame.stack
                    base = frame.base
                    pc = 0
                elif op == RET:
                    value = stack.pop() if a else None
                    memory.stack_restore(frame.saved_sp)
                    frames.pop()
                    if not frames:
                        return RunResult(status="exit", exit_code=int(value or 0))
                    frame = frames[-1]
                    code = frame.image.code
                    stack = frame.stack
                    base = frame.base
                    pc = frame.pc
                    if a:
                        stack.append(value)
                elif op == EQ:
                    r = stack.pop()
                    stack.append(1 if stack.pop() == r else 0)
                elif op == LEA_L:
                    stack.append(base + a)
                elif op == SUB:
                    r = stack.pop()
                    l = stack.pop()
                    if a is None:
                        stack.append(l - r)
                    else:
                        v = (l - r) & a[0]
                        stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == STG:
                    pk, size = pck[b]
                    off = a - gseg.window_start
                    buf = gseg.buf
                    value = stack.pop()
                    if 0 <= off and off + size <= len(buf):
                        try:
                            pk(buf, off, value)
                        except struct.error:
                            store(b, a, value)
                        else:
                            if mark is not None:
                                mark(a, size)
                    else:
                        store(b, a, value)
                elif op == LDG:
                    up, size = unp[b]
                    off = a - gseg.window_start
                    buf = gseg.buf
                    if 0 <= off and off + size <= len(buf):
                        stack.append(up(buf, off)[0])
                    else:
                        stack.append(load(b, a))
                elif op == POLL:
                    proc.polls += 1
                    if stack:
                        raise VMError(
                            f"eval stack not empty at POLL in {frame.image.name}"
                        )
                    if proc.migration_pending and proc.should_migrate_at(a):
                        frame.pc = pc  # resume position: instruction after POLL
                        return RunResult(status="poll", poll_id=a)
                elif op == GT:
                    r = stack.pop()
                    stack.append(1 if stack.pop() > r else 0)
                elif op == NE:
                    r = stack.pop()
                    stack.append(1 if stack.pop() != r else 0)
                elif op == LE:
                    r = stack.pop()
                    stack.append(1 if stack.pop() <= r else 0)
                elif op == GE:
                    r = stack.pop()
                    stack.append(1 if stack.pop() >= r else 0)
                elif op == JNZ:
                    if stack.pop():
                        pc = a
                elif op == PTRSUB:
                    i = stack.pop()
                    stack.append(stack.pop() - int(i) * a)
                elif op == PTRDIFF:
                    q = stack.pop()
                    p = stack.pop()
                    stack.append((p - q) // a)
                elif op == LNOT:
                    stack.append(0 if stack.pop() else 1)
                elif op == NEG:
                    v = stack.pop()
                    if a is None:
                        stack.append(-v)
                    else:
                        v = (-v) & a[0]
                        stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == BAND:
                    r = stack.pop()
                    v = (stack.pop() & r) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == BOR:
                    r = stack.pop()
                    v = (stack.pop() | r) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == BXOR:
                    r = stack.pop()
                    v = (stack.pop() ^ r) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == BNOT:
                    v = (~stack.pop()) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == SHL:
                    r = stack.pop()
                    v = (stack.pop() << (r & 63)) & a[0]
                    stack.append(v - a[0] - 1 if a[1] and v >= a[1] else v)
                elif op == SHR:
                    r = stack.pop()
                    stack.append(stack.pop() >> (r & 63))
                elif op == COPYBLK:
                    dst = stack.pop()
                    src = stack.pop()
                    memory.write_bytes(dst, memory.read_bytes(src, a))
                elif op == POP:
                    stack.pop()
                elif op == DUP:
                    stack.append(stack[-1])
                elif op == NOP:
                    pass
                else:  # pragma: no cover - defensive
                    raise VMError(f"bad opcode: {format_instr((op, a, b))}")
        except Exception:
            # leave the faulting instruction where a report can name it
            frame.pc = pc - 1
            raise
        finally:
            # once, however the run ends: budget, poll, return from main,
            # exit() out of a builtin, or a fault
            proc.steps += steps


def _float_div_zero(l: float, r: float) -> float:
    """IEEE 754 semantics for float division by (possibly signed) zero."""
    import math

    if l == 0.0 or l != l:
        return float("nan")
    sign = math.copysign(1.0, l) * math.copysign(1.0, r)
    return float("inf") if sign > 0 else float("-inf")
