"""IR generation: normalized, type-checked AST → neutral stack-VM code.

One :class:`FuncIR` per function.  The generator is deterministic, so the
same source compiles to the same instruction sequence on every host —
only operand *values* differ after per-architecture specialization
(:mod:`repro.vm.program`), never instruction count or order.  That is the
property the paper relies on when it assumes the annotated source has
been pre-distributed and compiled on all potential destinations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.liveness import LivenessResult
from repro.clang import cast as A
from repro.clang.ctypes import (
    ArrayType,
    CType,
    PointerType,
    PrimType,
    StructType,
    UCHAR,
    VoidType,
    type_key,
)
from repro.vm.ir import Instr, Op
from repro.vm.normalize import NormFunc, VarInfo

__all__ = ["CompileError", "FuncIR", "GlobalInfo", "IRGen", "kind_of"]


class CompileError(Exception):
    """IR generation failure (constructs the VM cannot express)."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def kind_of(ctype: CType) -> str:
    """The primitive kind used to move a value of *ctype* through the VM."""
    if isinstance(ctype, PrimType):
        return ctype.kind
    if isinstance(ctype, PointerType):
        return "ptr"
    raise CompileError(f"type {ctype} is not a register value")


@dataclass
class GlobalInfo:
    """One global memory object (program variable or string literal)."""

    name: str
    ctype: CType
    #: scalar constant initializer (python value) or None
    init: Optional[float | int] = None
    #: array element initializers (python values) or None
    init_list: Optional[list[float | int]] = None
    #: raw byte initializer (string literals)
    init_bytes: Optional[bytes] = None
    is_string: bool = False
    #: hidden runtime state (e.g. the PRNG cell) — migrates like any global
    is_hidden: bool = False


@dataclass
class FuncIR:
    """Compiled form of one function."""

    name: str
    norm: NormFunc
    code: list[Instr] = field(default_factory=list)
    #: poll id -> pc of the POLL instruction
    poll_pcs: dict[int, int] = field(default_factory=dict)
    #: pcs of CALL instructions (to user functions)
    call_pcs: list[int] = field(default_factory=list)
    #: filled in by the program builder
    liveness: Optional[LivenessResult] = None
    #: (first pc, source line) of each statement, in pc order
    stmt_lines: list[tuple[int, int]] = field(default_factory=list)
    #: stmt_id of each PollHint -> its program-wide poll id (annotator)
    poll_stmts: dict[int, int] = field(default_factory=dict)

    @property
    def nvars(self) -> int:
        return len(self.norm.variables)

    def line_at(self, pc: int) -> int:
        """Source line of the statement the instruction at *pc* belongs
        to (what a guest fault is reported at)."""
        i = bisect_right(self.stmt_lines, pc, key=lambda entry: entry[0])
        return self.stmt_lines[i - 1][1] if i else 0


class IRGen:
    """Generates neutral IR for one function.

    The *program* object supplies cross-function context and must provide:
    ``func_index(name)``, ``global_index(name)``, ``intern_string(s)``,
    ``builtin_index(name)``, ``builtin_ret(name)``, ``register_type(t)``,
    ``next_poll_id()``, ``function_ret(name)``.
    """

    def __init__(self, program, norm: NormFunc) -> None:
        self.program = program
        self.norm = norm
        self.fir = FuncIR(name=norm.name, norm=norm)
        self.code = self.fir.code
        # (break_patches, continue_patches, continue_target_or_None) stack
        self._loops: list[tuple[list[int], list[int], Optional[int]]] = []

    # -- emission helpers ------------------------------------------------------

    def emit(self, op: int, a=None, b=None) -> int:
        self.code.append((op, a, b))
        return len(self.code) - 1

    def _patch(self, pc: int, target: int) -> None:
        op, _a, b = self.code[pc]
        self.code[pc] = (op, target, b)

    def here(self) -> int:
        return len(self.code)

    # -- entry -------------------------------------------------------------------

    def run(self) -> FuncIR:
        for stmt in self.norm.body:
            self.stmt(stmt)
        # implicit return (falls off the end)
        self.emit(Op.RET, 0, None)
        return self.fir

    # -- statements -----------------------------------------------------------------

    def stmt(self, stmt: A.Stmt) -> None:
        self.fir.stmt_lines.append((self.here(), stmt.line))

        if isinstance(stmt, A.Block):
            for s in stmt.body:
                self.stmt(s)
            return

        if isinstance(stmt, A.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, A.Assign):
                self.assign(expr)
            elif isinstance(expr, A.Call):
                self.call(expr, want_value=False)
            else:  # pure expression statement: no effect, emit nothing
                pass
            return

        if isinstance(stmt, A.PollHint):
            poll_id = self.program.next_poll_id()
            pc = self.emit(Op.POLL, poll_id, None)
            self.fir.poll_pcs[poll_id] = pc
            self.fir.poll_stmts[stmt.stmt_id] = poll_id
            return

        if isinstance(stmt, A.If):
            self.rvalue(stmt.cond)
            jz = self.emit(Op.JZ, None, None)
            self.stmt(stmt.then)
            if stmt.other is not None:
                jend = self.emit(Op.JMP, None, None)
                self._patch(jz, self.here())
                self.stmt(stmt.other)
                self._patch(jend, self.here())
            else:
                self._patch(jz, self.here())
            return

        if isinstance(stmt, A.While):
            top = self.here()
            for s in stmt.cond_pre:
                self.stmt(s)
            self.rvalue(stmt.cond)
            jz = self.emit(Op.JZ, None, None)
            breaks: list[int] = []
            continues: list[int] = []
            self._loops.append((breaks, continues, top))
            self.stmt(stmt.body)
            self._loops.pop()
            self.emit(Op.JMP, top, None)
            end = self.here()
            self._patch(jz, end)
            for pc in breaks:
                self._patch(pc, end)
            for pc in continues:
                self._patch(pc, top)
            return

        if isinstance(stmt, A.DoWhile):
            top = self.here()
            breaks, continues = [], []
            self._loops.append((breaks, continues, None))
            self.stmt(stmt.body)
            self._loops.pop()
            cond_top = self.here()
            for s in stmt.cond_pre:
                self.stmt(s)
            # the condition sits on its own line, after the body's last
            self.fir.stmt_lines.append((self.here(), stmt.cond.line))
            self.rvalue(stmt.cond)
            self.emit(Op.JNZ, top, None)
            end = self.here()
            for pc in breaks:
                self._patch(pc, end)
            for pc in continues:
                self._patch(pc, cond_top)
            return

        if isinstance(stmt, A.For):
            for s in stmt.init_stmts:
                self.stmt(s)
            top = self.here()
            for s in stmt.cond_pre:
                self.stmt(s)
            jz = None
            if stmt.cond is not None:
                self.rvalue(stmt.cond)
                jz = self.emit(Op.JZ, None, None)
            breaks, continues = [], []
            self._loops.append((breaks, continues, None))
            self.stmt(stmt.body)
            self._loops.pop()
            step_top = self.here()
            for s in stmt.step_stmts:
                self.stmt(s)
            self.emit(Op.JMP, top, None)
            end = self.here()
            if jz is not None:
                self._patch(jz, end)
            for pc in breaks:
                self._patch(pc, end)
            for pc in continues:
                self._patch(pc, step_top)
            return

        if isinstance(stmt, A.Break):
            if not self._loops:
                raise CompileError("break outside loop/switch", stmt.line)
            pc = self.emit(Op.JMP, None, None)
            self._loops[-1][0].append(pc)
            return

        if isinstance(stmt, A.Continue):
            # find the innermost *loop* (switch pushes continues=None)
            for frame in reversed(self._loops):
                if frame[1] is not None:
                    pc = self.emit(Op.JMP, None, None)
                    frame[1].append(pc)
                    return
            raise CompileError("continue outside loop", stmt.line)

        if isinstance(stmt, A.Return):
            if stmt.value is not None:
                if isinstance(stmt.value, A.Call):
                    self.call(stmt.value, want_value=True)
                else:
                    self.rvalue(stmt.value)
                self.emit(Op.RET, 1, None)
            else:
                self.emit(Op.RET, 0, None)
            return

        if isinstance(stmt, A.Switch):
            self.switch(stmt)
            return

        raise CompileError(f"cannot compile statement {type(stmt).__name__}", stmt.line)

    def switch(self, stmt: A.Switch) -> None:
        kind = kind_of(stmt.cond.ctype)
        case_jumps: list[tuple[int, A.SwitchCase]] = []
        default_case: Optional[A.SwitchCase] = None
        for case in stmt.cases:
            if case.value is None:
                default_case = case
                continue
            self.rvalue(stmt.cond)  # pure: safe to re-evaluate
            self.emit(Op.PUSH, case.value, None)
            self.emit(Op.EQ, None, None)
            pc = self.emit(Op.JNZ, None, None)
            case_jumps.append((pc, case))
        jdefault = self.emit(Op.JMP, None, None)
        del kind

        breaks: list[int] = []
        self._loops.append((breaks, None, None))  # switch: break only
        case_starts: dict[int, int] = {}
        for case in stmt.cases:
            case_starts[id(case)] = self.here()
            for s in case.body:
                self.stmt(s)
        self._loops.pop()
        end = self.here()

        for pc, case in case_jumps:
            self._patch(pc, case_starts[id(case)])
        self._patch(jdefault, case_starts[id(default_case)] if default_case else end)
        for pc in breaks:
            self._patch(pc, end)

    # -- assignment --------------------------------------------------------------------

    def assign(self, expr: A.Assign) -> None:
        target = expr.target
        value = expr.value
        if expr.op:
            raise CompileError("compound assignment survived normalization", expr.line)

        # direct store into a named scalar
        if isinstance(target, A.Ident) and not isinstance(target.ctype, StructType):
            ref = self._resolve(target.name)
            scope, idx, ctype = ref
            if ctype.is_scalar:
                self.gen_value(value)
                kind = kind_of(ctype)
                if scope == "local":
                    self.emit(Op.STL, (idx, kind), None)
                else:
                    self.emit(Op.STG, (idx, kind), None)
                return

        # struct assignment by value: copy the whole block
        if isinstance(target.ctype, StructType):
            self.rvalue(value)  # struct rvalue == its address
            self.address_of(target)
            self.emit(Op.COPYBLK, target.ctype, None)
            return

        # general store: value, then address, then STORE
        self.gen_value(value)
        self.address_of(target)
        self.emit(Op.STORE, kind_of(target.ctype), None)

    def gen_value(self, value: A.Expr) -> None:
        """Push the value of *value*, allowing the three call shapes."""
        if isinstance(value, A.Call):
            self.call(value, want_value=True)
        elif isinstance(value, A.Cast) and isinstance(value.operand, A.Call):
            # typed-malloc pattern: (T*)malloc(...) — the cast selects the
            # block element type, the value itself needs no conversion
            self.call(value.operand, want_value=True, cast_to=value.to)
            self._maybe_cvt(value.operand.ctype, value.to)
        else:
            self.rvalue(value)

    def _maybe_cvt(self, frm: CType, to: CType) -> None:
        if isinstance(frm, PrimType) and isinstance(to, PrimType) and frm.kind != to.kind:
            self.emit(Op.CVT, (frm.kind, to.kind), None)

    # -- calls --------------------------------------------------------------------------

    def call(self, call: A.Call, want_value: bool, cast_to: Optional[CType] = None) -> None:
        fidx = self.program.func_index(call.func)
        if fidx is not None:
            for arg in call.args:
                self.rvalue(arg)
            pc = self.emit(Op.CALL, fidx, len(call.args))
            self.fir.call_pcs.append(pc)
            ret = self.program.function_ret(call.func)
            if not want_value and not isinstance(ret, VoidType):
                self.emit(Op.POP, None, None)
            if want_value and isinstance(ret, VoidType):
                raise CompileError(f"void value of {call.func}() used", call.line)
            return

        bidx = self.program.builtin_index(call.func)
        if bidx is None:
            raise CompileError(f"unknown function {call.func!r}", call.line)
        for arg in call.args:
            self.rvalue(arg)
        extra = None
        if call.func in ("malloc", "calloc", "realloc"):
            elem: CType = UCHAR
            if cast_to is not None and isinstance(cast_to, PointerType):
                if not isinstance(cast_to.target, VoidType):
                    elem = cast_to.target
            extra = self.program.register_type(elem)
        self.emit(Op.CALLB, bidx, (len(call.args), extra))
        ret = self.program.builtin_ret(call.func)
        if not want_value and not isinstance(ret, VoidType):
            self.emit(Op.POP, None, None)
        if want_value and isinstance(ret, VoidType):
            raise CompileError(f"void value of builtin {call.func}() used", call.line)

    # -- addresses -----------------------------------------------------------------------

    def _resolve(self, name: str) -> tuple[str, int, CType]:
        idx = self.norm.var_index.get(name)
        if idx is not None:
            return "local", idx, self.norm.variables[idx].ctype
        gidx = self.program.global_index(name)
        if gidx is not None:
            return "global", gidx, self.program.global_ctype(gidx)
        raise CompileError(f"unresolved identifier {name!r}")

    def address_of(self, expr: A.Expr) -> None:
        """Push the address of lvalue *expr*."""
        if isinstance(expr, A.Ident):
            scope, idx, _ctype = self._resolve(expr.name)
            self.emit(Op.LEA_L if scope == "local" else Op.LEA_G, idx, None)
            return
        if isinstance(expr, A.Unary) and expr.op == "*":
            self.rvalue(expr.operand)
            return
        if isinstance(expr, A.Index):
            self.rvalue(expr.base)  # pointer value (decayed arrays included)
            self.rvalue(expr.index)
            self._index_cvt(expr.index)
            self.emit(Op.PTRADD, self.program.register_ptr_elem(_elem_of(expr.base.ctype)), None)
            return
        if isinstance(expr, A.Member):
            stype = self._member_struct(expr)
            if expr.arrow:
                self.rvalue(expr.base)
            else:
                self.address_of(expr.base)
            self.emit(Op.OFFSET, (stype, expr.name), None)
            return
        raise CompileError(f"cannot take the address of {type(expr).__name__}", expr.line)

    def _member_struct(self, expr: A.Member) -> StructType:
        base_t = expr.base.ctype
        if expr.arrow:
            assert isinstance(base_t, PointerType) and isinstance(base_t.target, StructType)
            return base_t.target
        assert isinstance(base_t, StructType)
        return base_t

    def _index_cvt(self, index: A.Expr) -> None:
        """Indices join pointer arithmetic as plain python ints — nothing
        to do, but keep the hook for documentation symmetry."""

    # -- rvalues --------------------------------------------------------------------------

    def rvalue(self, expr: A.Expr) -> None:
        """Push the value of pure expression *expr*."""
        ctype = expr.ctype

        if isinstance(expr, A.IntLit):
            self.emit(Op.PUSH, expr.value, None)
            return
        if isinstance(expr, A.CharLit):
            self.emit(Op.PUSH, expr.value, None)
            return
        if isinstance(expr, A.FloatLit):
            self.emit(Op.PUSH, float(expr.value), None)
            return
        if isinstance(expr, A.Null):
            self.emit(Op.PUSH, 0, None)
            return
        if isinstance(expr, A.StringLit):
            gidx = self.program.intern_string(expr.value)
            self.emit(Op.LEA_G, gidx, None)
            return

        if isinstance(expr, A.Ident):
            scope, idx, declared = self._resolve(expr.name)
            if declared.is_scalar:
                kind = kind_of(declared)
                self.emit(Op.LDL if scope == "local" else Op.LDG, (idx, kind), None)
            else:
                # arrays (decay) and structs (address for member chains)
                self.emit(Op.LEA_L if scope == "local" else Op.LEA_G, idx, None)
            return

        if isinstance(expr, A.Unary):
            op = expr.op
            if op == "&":
                self.address_of(expr.operand)
                return
            if op == "*":
                self.rvalue(expr.operand)
                self._load_object(_elem_of(expr.operand.ctype))
                return
            if op == "!":
                self.rvalue(expr.operand)
                self.emit(Op.LNOT, None, None)
                return
            self.rvalue(expr.operand)
            if op == "-":
                self.emit(Op.NEG, _wrap_spec(ctype), None)
            elif op == "~":
                self.emit(Op.BNOT, _wrap_spec(ctype), None)
            else:
                raise CompileError(f"unary {op!r} survived normalization", expr.line)
            return

        if isinstance(expr, A.Binary):
            self._binary(expr)
            return

        if isinstance(expr, A.Index):
            elem = _elem_of(expr.base.ctype)
            self.rvalue(expr.base)
            self.rvalue(expr.index)
            self.emit(Op.PTRADD, self.program.register_ptr_elem(elem), None)
            self._load_object(elem)
            return

        if isinstance(expr, A.Member):
            stype = self._member_struct(expr)
            if expr.arrow:
                self.rvalue(expr.base)
            else:
                self.address_of(expr.base)
            self.emit(Op.OFFSET, (stype, expr.name), None)
            self._load_object(stype.field_type(expr.name))
            return

        if isinstance(expr, A.Cast):
            self.rvalue(expr.operand)
            self._maybe_cvt(expr.operand.ctype, expr.to)
            return

        if isinstance(expr, A.SizeofType):
            self.emit(Op.PUSH_SIZEOF, expr.of, None)
            return
        if isinstance(expr, A.SizeofExpr):
            self.emit(Op.PUSH_SIZEOF, expr.operand.ctype, None)
            return

        if isinstance(expr, A.Cond):
            self.rvalue(expr.cond)
            jz = self.emit(Op.JZ, None, None)
            self.rvalue(expr.then)
            jend = self.emit(Op.JMP, None, None)
            self._patch(jz, self.here())
            self.rvalue(expr.other)
            self._patch(jend, self.here())
            return

        raise CompileError(
            f"impure expression {type(expr).__name__} survived normalization", expr.line
        )

    def _load_object(self, ctype: CType) -> None:
        """Pop an address; push the value of the object of declared type
        *ctype* (scalars load; arrays/structs keep their address — C
        decay).  Callers must pass the OBJECT type, never the decayed
        rvalue annotation, or array elements would be misread as loads."""
        if ctype is not None and ctype.is_scalar:
            self.emit(Op.LOAD, kind_of(ctype), None)
        # arrays/structs: address already pushed

    _CMP_OPS = {"==": Op.EQ, "!=": Op.NE, "<": Op.LT, "<=": Op.LE, ">": Op.GT, ">=": Op.GE}
    _ARITH_OPS = {
        "+": Op.ADD,
        "-": Op.SUB,
        "*": Op.MUL,
        "/": Op.DIV,
        "%": Op.MOD,
        "&": Op.BAND,
        "|": Op.BOR,
        "^": Op.BXOR,
        "<<": Op.SHL,
        ">>": Op.SHR,
    }

    def _binary(self, expr: A.Binary) -> None:
        op = expr.op
        lt, rt = expr.left.ctype, expr.right.ctype

        if op in ("&&", "||"):
            # pure short-circuit producing 0/1
            self.rvalue(expr.left)
            if op == "&&":
                jshort = self.emit(Op.JZ, None, None)
            else:
                jshort = self.emit(Op.JNZ, None, None)
            self.rvalue(expr.right)
            self.emit(Op.LNOT, None, None)
            self.emit(Op.LNOT, None, None)  # normalize to 0/1
            jend = self.emit(Op.JMP, None, None)
            self._patch(jshort, self.here())
            self.emit(Op.PUSH, 0 if op == "&&" else 1, None)
            self._patch(jend, self.here())
            return

        if op in self._CMP_OPS:
            self.rvalue(expr.left)
            self.rvalue(expr.right)
            self.emit(self._CMP_OPS[op], None, None)
            return

        # pointer arithmetic
        if isinstance(lt, PointerType) and isinstance(rt, PointerType) and op == "-":
            self.rvalue(expr.left)
            self.rvalue(expr.right)
            self.emit(Op.PTRDIFF, self.program.register_ptr_elem(lt.target), None)
            return
        if isinstance(lt, PointerType):
            self.rvalue(expr.left)
            self.rvalue(expr.right)
            opcode = Op.PTRADD if op == "+" else Op.PTRSUB
            self.emit(opcode, self.program.register_ptr_elem(lt.target), None)
            return
        if isinstance(rt, PointerType):  # int + ptr
            self.rvalue(expr.right)
            self.rvalue(expr.left)
            self.emit(Op.PTRADD, self.program.register_ptr_elem(rt.target), None)
            return

        self.rvalue(expr.left)
        self.rvalue(expr.right)
        opcode = self._ARITH_OPS.get(op)
        if opcode is None:
            raise CompileError(f"binary {op!r} survived normalization", expr.line)
        self.emit(opcode, _wrap_spec(expr.ctype), None)


def _elem_of(ctype: CType) -> CType:
    """Pointee of a pointer-or-array-typed base expression."""
    if isinstance(ctype, PointerType):
        return ctype.target
    if isinstance(ctype, ArrayType):
        return ctype.elem
    raise CompileError(f"subscripted value has type {ctype}")


def _wrap_spec(ctype: CType):
    """Neutral wrap annotation: the result kind (resolved per arch)."""
    if isinstance(ctype, PrimType):
        return ctype.kind
    if isinstance(ctype, PointerType):
        return "ptr"
    raise CompileError(f"arithmetic on non-primitive type {ctype}")
