"""Type checker: annotates every expression with its C type.

Runs on the parsed AST before normalization.  Responsibilities:

- resolve identifiers through block scoping;
- apply C's usual arithmetic conversions, materializing every implicit
  numeric conversion as an (implicit) :class:`~repro.clang.cast.Cast`
  node so that IR generation is purely local;
- decay arrays to pointers in rvalue contexts;
- type pointer arithmetic and member access;
- check calls against user function definitions and the builtin
  library's signatures.

Any violation raises :class:`TypeCheckError` with a source line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.clang import cast as A
from repro.clang.ctypes import (
    ArrayType,
    CHAR,
    CType,
    DOUBLE,
    FLOAT,
    INT,
    PointerType,
    PrimType,
    StructType,
    UINT,
    ULONG,
    VOID,
    VoidType,
    type_key,
)
from repro.clang.parser import const_value

__all__ = ["TypeCheckError", "BuiltinSig", "TypeChecker", "arith_result", "is_null_ptr"]


class TypeCheckError(Exception):
    """A C typing violation."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class BuiltinSig:
    """Type signature of one builtin library function.

    ``params`` lists fixed parameter types; ``variadic`` allows extra
    arguments (which receive C's default argument promotions).
    """

    name: str
    ret: CType
    params: tuple[CType, ...]
    variadic: bool = False


# integer conversion rank (C11 6.3.1.1), floats above all integers
_RANK = {
    "char": 1,
    "uchar": 1,
    "short": 2,
    "ushort": 2,
    "int": 3,
    "uint": 3,
    "long": 4,
    "ulong": 4,
    "llong": 5,
    "ullong": 5,
    "float": 6,
    "double": 7,
}

_UNSIGNED_OF = {"char": "uchar", "short": "ushort", "int": "uint", "long": "ulong", "llong": "ullong"}


def _promote(kind: str) -> str:
    """Integer promotion: sub-int kinds become int."""
    if _RANK[kind] < _RANK["int"]:
        return "int"
    return kind


def arith_result(lk: str, rk: str) -> str:
    """Usual arithmetic conversions: result kind of ``lk (op) rk``."""
    if lk == "double" or rk == "double":
        return "double"
    if lk == "float" or rk == "float":
        return "float"
    lk, rk = _promote(lk), _promote(rk)
    if lk == rk:
        return lk
    hi, lo = (lk, rk) if _RANK[lk] >= _RANK[rk] else (rk, lk)
    if _RANK[hi] > _RANK[lo]:
        # higher rank wins; unsignedness of the lower-ranked operand is
        # absorbed (we model the common ILP32/LP64 cases)
        if hi in _UNSIGNED_OF.values() or lo not in _UNSIGNED_OF.values():
            return hi
        return hi
    # same rank, one unsigned -> unsigned wins
    return hi if hi in _UNSIGNED_OF.values() else _UNSIGNED_OF.get(hi, hi)


def is_null_ptr(expr: A.Expr) -> bool:
    """Whether *expr* is a null pointer constant."""
    return isinstance(expr, A.Null) or (isinstance(expr, A.IntLit) and expr.value == 0)


def _pointer_compatible(dst: PointerType, src: CType) -> bool:
    if not isinstance(src, PointerType):
        return False
    if isinstance(dst.target, VoidType) or isinstance(src.target, VoidType):
        return True
    return type_key(dst.target) == type_key(src.target)


class _Scope:
    """One lexical scope level."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.vars: dict[str, CType] = {}
        self.parent = parent

    def lookup(self, name: str) -> Optional[CType]:
        scope: Optional[_Scope] = self
        while scope is not None:
            ctype = scope.vars.get(name)
            if ctype is not None:
                return ctype
            scope = scope.parent
        return None


class TypeChecker:
    """Annotates a translation unit in place."""

    def __init__(self, unit: A.TranslationUnit, builtins: dict[str, BuiltinSig]) -> None:
        self.unit = unit
        self.builtins = builtins
        self.functions: dict[str, A.FuncDef] = {f.name: f for f in unit.functions}
        self.globals_scope = _Scope()
        self._current_ret: CType = VOID

    # -- public ----------------------------------------------------------------

    def check(self) -> None:
        """Type-check the whole unit, annotating ``ctype`` on expressions."""
        for gvar in self.unit.globals:
            if gvar.name in self.globals_scope.vars:
                raise TypeCheckError(f"redefinition of global {gvar.name!r}", gvar.line)
            if gvar.name in self.functions or gvar.name in self.builtins:
                raise TypeCheckError(
                    f"global {gvar.name!r} collides with a function name", gvar.line
                )
            self.globals_scope.vars[gvar.name] = gvar.ctype
            if gvar.init is not None:
                self._check_global_init(gvar)
            if gvar.init_list is not None:
                self._check_global_init_list(gvar)
        for func in self.unit.functions:
            self._check_function(func)

    # -- globals ------------------------------------------------------------------

    def _check_global_init(self, gvar: A.GlobalVar) -> None:
        ctype = self.rvalue(gvar.init)
        gvar.init = self._convert(gvar.init, gvar.ctype, gvar.line)
        if const_value(gvar.init) is None:
            raise TypeCheckError(
                f"global initializer of {gvar.name!r} must be constant", gvar.line
            )
        del ctype

    def _check_global_init_list(self, gvar: A.GlobalVar) -> None:
        if not isinstance(gvar.ctype, ArrayType):
            raise TypeCheckError("brace initializer on non-array global", gvar.line)
        elem = gvar.ctype.elem
        if len(gvar.init_list) > gvar.ctype.length:
            raise TypeCheckError("too many initializers", gvar.line)
        new_items = []
        for item in gvar.init_list:
            self.rvalue(item)
            item = self._convert(item, elem, gvar.line)
            if const_value(item) is None:
                raise TypeCheckError("global initializers must be constant", gvar.line)
            new_items.append(item)
        gvar.init_list[:] = new_items

    # -- functions ------------------------------------------------------------------

    def _check_function(self, func: A.FuncDef) -> None:
        scope = _Scope(self.globals_scope)
        for p in func.params:
            if p.name in scope.vars:
                raise TypeCheckError(f"duplicate parameter {p.name!r}", func.line)
            scope.vars[p.name] = p.ctype
        self._current_ret = func.ret
        self._check_block(func.body, scope)

    def _check_block(self, block: A.Block, parent: _Scope) -> None:
        scope = _Scope(parent)
        for stmt in block.body:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: A.Stmt, scope: _Scope) -> None:
        self._scope = scope
        if isinstance(stmt, A.ExprStmt):
            self.rvalue(stmt.expr)
        elif isinstance(stmt, A.DeclStmt):
            for decl in stmt.decls:
                if decl.name in scope.vars:
                    raise TypeCheckError(f"redefinition of {decl.name!r}", decl.line)
                scope.vars[decl.name] = decl.ctype
                if decl.init is not None:
                    if isinstance(decl.ctype, StructType):
                        # struct initialization = struct assignment by value
                        vt = self._expr(decl.init)
                        if not (
                            isinstance(vt, StructType)
                            and type_key(vt) == type_key(decl.ctype)
                        ):
                            raise TypeCheckError(
                                f"cannot initialize {decl.ctype} from {vt}", decl.line
                            )
                    else:
                        self.rvalue(decl.init)
                        decl.init = self._convert(decl.init, decl.ctype, decl.line)
                if decl.init_list is not None:
                    if not isinstance(decl.ctype, ArrayType):
                        raise TypeCheckError("brace initializer on non-array", decl.line)
                    if len(decl.init_list) > decl.ctype.length:
                        raise TypeCheckError("too many initializers", decl.line)
                    decl.init_list[:] = [
                        self._convert(self._rv(item), decl.ctype.elem, decl.line)
                        for item in decl.init_list
                    ]
        elif isinstance(stmt, A.If):
            self._check_cond(stmt.cond)
            self._check_stmt(stmt.then, _Scope(scope))
            if stmt.other is not None:
                self._check_stmt(stmt.other, _Scope(scope))
        elif isinstance(stmt, A.While):
            self._check_cond(stmt.cond)
            self._check_stmt(stmt.body, _Scope(scope))
        elif isinstance(stmt, A.DoWhile):
            self._check_stmt(stmt.body, _Scope(scope))
            self._scope = scope
            self._check_cond(stmt.cond)
        elif isinstance(stmt, A.For):
            if stmt.init is not None:
                self.rvalue(stmt.init)
            if stmt.cond is not None:
                self._check_cond(stmt.cond)
            if stmt.step is not None:
                self.rvalue(stmt.step)
            self._check_stmt(stmt.body, _Scope(scope))
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                if isinstance(self._current_ret, VoidType):
                    raise TypeCheckError("return with value in void function", stmt.line)
                self.rvalue(stmt.value)
                stmt.value = self._convert(stmt.value, self._current_ret, stmt.line)
            elif not isinstance(self._current_ret, VoidType):
                raise TypeCheckError("return without value in non-void function", stmt.line)
        elif isinstance(stmt, A.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, A.Switch):
            ctype = self.rvalue(stmt.cond)
            if not (isinstance(ctype, PrimType) and ctype.is_integer):
                raise TypeCheckError("switch condition must be an integer", stmt.line)
            for case in stmt.cases:
                for s in case.body:
                    self._check_stmt(s, _Scope(scope))
        elif isinstance(stmt, (A.Break, A.Continue, A.PollHint)):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise TypeCheckError(f"unknown statement {type(stmt).__name__}", stmt.line)

    def _check_cond(self, expr: A.Expr) -> None:
        ctype = self.rvalue(expr)
        if not (ctype.is_scalar or isinstance(ctype, PointerType)):
            raise TypeCheckError(f"condition has non-scalar type {ctype}", expr.line)

    # -- expressions -------------------------------------------------------------------

    def _rv(self, expr: A.Expr) -> A.Expr:
        self.rvalue(expr)
        return expr

    def rvalue(self, expr: A.Expr) -> CType:
        """Type of *expr* as a value (arrays decay); annotates ``expr.ctype``."""
        ctype = self._expr(expr)
        if isinstance(ctype, ArrayType):
            ctype = PointerType(ctype.elem)
            expr.ctype = ctype
        return ctype

    def lvalue(self, expr: A.Expr) -> CType:
        """Type of *expr* as an object (no decay); must be addressable."""
        if isinstance(expr, A.Ident):
            return self._expr(expr)
        if isinstance(expr, A.Unary) and expr.op == "*":
            return self._expr(expr)
        if isinstance(expr, (A.Index, A.Member)):
            return self._expr(expr)
        raise TypeCheckError(f"expression is not an lvalue", expr.line)

    def _expr(self, expr: A.Expr) -> CType:
        ctype = self._expr_inner(expr)
        expr.ctype = ctype
        return ctype

    def _expr_inner(self, expr: A.Expr) -> CType:
        scope = getattr(self, "_scope", self.globals_scope)

        if isinstance(expr, A.IntLit):
            if expr.unsigned and expr.long:
                return ULONG
            if expr.unsigned:
                return UINT
            if expr.long:
                return PrimType("long")
            if expr.value > 2**31 - 1:
                return PrimType("long") if expr.value <= 2**63 - 1 else PrimType("ullong")
            return INT
        if isinstance(expr, A.FloatLit):
            return FLOAT if expr.single else DOUBLE
        if isinstance(expr, A.CharLit):
            return INT
        if isinstance(expr, A.StringLit):
            return ArrayType(CHAR, max(len(expr.value.encode("utf-8")) + 1, 1))
        if isinstance(expr, A.Null):
            return PointerType(VOID)

        if isinstance(expr, A.Ident):
            ctype = scope.lookup(expr.name)
            if ctype is None:
                raise TypeCheckError(f"undeclared identifier {expr.name!r}", expr.line)
            return ctype

        if isinstance(expr, A.Unary):
            return self._unary(expr)
        if isinstance(expr, A.Binary):
            return self._binary(expr)
        if isinstance(expr, A.Assign):
            return self._assign(expr)
        if isinstance(expr, A.Call):
            return self._call(expr)

        if isinstance(expr, A.Index):
            base = self.rvalue(expr.base)
            if not isinstance(base, PointerType):
                raise TypeCheckError(f"subscript of non-pointer type {base}", expr.line)
            idx = self.rvalue(expr.index)
            if not (isinstance(idx, PrimType) and idx.is_integer):
                raise TypeCheckError("array subscript must be an integer", expr.line)
            return base.target

        if isinstance(expr, A.Member):
            if expr.arrow:
                base = self.rvalue(expr.base)
                if not (isinstance(base, PointerType) and isinstance(base.target, StructType)):
                    raise TypeCheckError(f"-> on non-struct-pointer type {base}", expr.line)
                stype = base.target
            else:
                base = self._expr(expr.base)
                if not isinstance(base, StructType):
                    raise TypeCheckError(f". on non-struct type {base}", expr.line)
                stype = base
            try:
                return stype.field_type(expr.name)
            except KeyError as exc:
                raise TypeCheckError(str(exc), expr.line) from None

        if isinstance(expr, A.Cast):
            self.rvalue(expr.operand)
            return expr.to

        if isinstance(expr, A.SizeofType):
            return ULONG
        if isinstance(expr, A.SizeofExpr):
            # typed for its side effects only; value resolved per arch
            self._expr(expr.operand)
            return ULONG

        if isinstance(expr, A.Cond):
            self._check_cond(expr.cond)
            lt = self.rvalue(expr.then)
            rt = self.rvalue(expr.other)
            if isinstance(lt, PointerType) or isinstance(rt, PointerType):
                if is_null_ptr(expr.then):
                    return rt
                if is_null_ptr(expr.other):
                    return lt
                if isinstance(lt, PointerType) and isinstance(rt, PointerType):
                    return lt
                raise TypeCheckError("mismatched ?: branches", expr.line)
            rk = arith_result(lt.kind, rt.kind)
            expr.then = self._convert(expr.then, PrimType(rk), expr.line)
            expr.other = self._convert(expr.other, PrimType(rk), expr.line)
            return PrimType(rk)

        raise TypeCheckError(f"unknown expression {type(expr).__name__}", expr.line)

    def _unary(self, expr: A.Unary) -> CType:
        op = expr.op
        if op == "&":
            ctype = self.lvalue(expr.operand)
            return PointerType(ctype)
        if op == "*":
            ctype = self.rvalue(expr.operand)
            if not isinstance(ctype, PointerType) or isinstance(ctype.target, VoidType):
                raise TypeCheckError(f"cannot dereference type {ctype}", expr.line)
            return ctype.target
        if op in ("++", "--", "p++", "p--"):
            ctype = self.lvalue(expr.operand)
            if isinstance(ctype, PointerType):
                return ctype
            if isinstance(ctype, PrimType):
                return ctype
            raise TypeCheckError(f"cannot increment type {ctype}", expr.line)
        if op == "!":
            self._check_cond(expr.operand)
            return INT
        if op in ("-", "~"):
            ctype = self.rvalue(expr.operand)
            if not isinstance(ctype, PrimType):
                raise TypeCheckError(f"bad operand type {ctype} for unary {op}", expr.line)
            if op == "~" and not ctype.is_integer:
                raise TypeCheckError("~ requires an integer operand", expr.line)
            kind = _promote(ctype.kind) if ctype.is_integer else ctype.kind
            expr.operand = self._convert(expr.operand, PrimType(kind), expr.line)
            return PrimType(kind)
        raise TypeCheckError(f"unknown unary operator {op!r}", expr.line)

    def _binary(self, expr: A.Binary) -> CType:
        op = expr.op
        if op in ("&&", "||"):
            self._check_cond(expr.left)
            self._check_cond(expr.right)
            return INT
        if op == ",":
            self.rvalue(expr.left)
            return self.rvalue(expr.right)

        lt = self.rvalue(expr.left)
        rt = self.rvalue(expr.right)

        if op in ("==", "!=", "<", "<=", ">", ">="):
            if isinstance(lt, PointerType) or isinstance(rt, PointerType):
                if not (
                    (isinstance(lt, PointerType) and isinstance(rt, PointerType))
                    or is_null_ptr(expr.left)
                    or is_null_ptr(expr.right)
                ):
                    raise TypeCheckError("comparison of pointer and non-pointer", expr.line)
                return INT
            rk = arith_result(lt.kind, rt.kind)
            expr.left = self._convert(expr.left, PrimType(rk), expr.line)
            expr.right = self._convert(expr.right, PrimType(rk), expr.line)
            return INT

        # pointer arithmetic
        if isinstance(lt, PointerType) or isinstance(rt, PointerType):
            if op == "+":
                if isinstance(lt, PointerType) and isinstance(rt, PrimType) and rt.is_integer:
                    return lt
                if isinstance(rt, PointerType) and isinstance(lt, PrimType) and lt.is_integer:
                    return rt
            if op == "-":
                if isinstance(lt, PointerType) and isinstance(rt, PointerType):
                    if type_key(lt.target) != type_key(rt.target):
                        raise TypeCheckError("subtraction of incompatible pointers", expr.line)
                    return PrimType("long")
                if isinstance(lt, PointerType) and isinstance(rt, PrimType) and rt.is_integer:
                    return lt
            raise TypeCheckError(f"invalid pointer operation {lt} {op} {rt}", expr.line)

        if not (isinstance(lt, PrimType) and isinstance(rt, PrimType)):
            raise TypeCheckError(f"bad operand types {lt} {op} {rt}", expr.line)

        if op in ("%", "&", "|", "^", "<<", ">>") and not (lt.is_integer and rt.is_integer):
            raise TypeCheckError(f"{op} requires integer operands", expr.line)

        if op in ("<<", ">>"):
            kind = _promote(lt.kind)
            expr.left = self._convert(expr.left, PrimType(kind), expr.line)
            expr.right = self._convert(expr.right, INT, expr.line)
            return PrimType(kind)

        rk = arith_result(lt.kind, rt.kind)
        expr.left = self._convert(expr.left, PrimType(rk), expr.line)
        expr.right = self._convert(expr.right, PrimType(rk), expr.line)
        return PrimType(rk)

    def _assign(self, expr: A.Assign) -> CType:
        target_t = self.lvalue(expr.target)
        if isinstance(target_t, ArrayType):
            raise TypeCheckError("cannot assign to an array", expr.line)
        if isinstance(target_t, StructType):
            if expr.op:
                raise TypeCheckError("compound assignment on a struct", expr.line)
            vt = self._expr(expr.value)
            if not (isinstance(vt, StructType) and type_key(vt) == type_key(target_t)):
                raise TypeCheckError(
                    f"cannot assign {vt} to {target_t}", expr.line
                )
            return target_t
        if expr.op:
            # compound: type as target = target op value (desugared later)
            synth = A.Binary(op=expr.op, left=expr.target, right=expr.value, line=expr.line)
            self._binary(synth)
            expr.value = synth.right  # pick up inserted conversions
            # final conversion back to the target type happens below
            vt = synth.ctype if synth.ctype is not None else self.rvalue(expr.value)
            del vt
        else:
            self.rvalue(expr.value)
        expr.value = self._convert(expr.value, target_t, expr.line)
        return target_t

    def _call(self, expr: A.Call) -> CType:
        func = self.functions.get(expr.func)
        if func is not None:
            if len(expr.args) != len(func.params):
                raise TypeCheckError(
                    f"{expr.func} expects {len(func.params)} args, got {len(expr.args)}",
                    expr.line,
                )
            for i, (arg, param) in enumerate(zip(expr.args, func.params)):
                self.rvalue(arg)
                expr.args[i] = self._convert(arg, param.ctype, expr.line)
            return func.ret

        sig = self.builtins.get(expr.func)
        if sig is None:
            raise TypeCheckError(f"call to undefined function {expr.func!r}", expr.line)
        if len(expr.args) < len(sig.params) or (
            len(expr.args) > len(sig.params) and not sig.variadic
        ):
            raise TypeCheckError(
                f"{expr.func} expects {len(sig.params)} args, got {len(expr.args)}",
                expr.line,
            )
        for i, arg in enumerate(expr.args):
            self.rvalue(arg)
            if i < len(sig.params):
                expr.args[i] = self._convert(arg, sig.params[i], expr.line)
            else:
                expr.args[i] = self._default_promote(arg)
        return sig.ret

    def _default_promote(self, arg: A.Expr) -> A.Expr:
        """C default argument promotions for variadic arguments."""
        ctype = arg.ctype
        if isinstance(ctype, PrimType):
            if ctype.kind == "float":
                return self._convert(arg, DOUBLE, arg.line)
            if ctype.is_integer and _RANK[ctype.kind] < _RANK["int"]:
                return self._convert(arg, INT, arg.line)
        return arg

    # -- conversions -----------------------------------------------------------------

    def _convert(self, expr: A.Expr, to: CType, line: int) -> A.Expr:
        """Insert an implicit conversion of *expr* to *to* if needed."""
        frm = expr.ctype
        if frm is None:
            frm = self.rvalue(expr)
        if isinstance(to, PointerType):
            if is_null_ptr(expr):
                expr.ctype = to
                return expr
            if isinstance(frm, PointerType):
                if _pointer_compatible(to, frm):
                    expr.ctype = to
                    return expr
                raise TypeCheckError(
                    f"incompatible pointer assignment: {frm} -> {to} "
                    "(use an explicit cast if this aliasing is intended)",
                    line,
                )
            raise TypeCheckError(f"cannot convert {frm} to {to}", line)
        if isinstance(to, PrimType):
            if isinstance(frm, PointerType):
                raise TypeCheckError(
                    f"implicit pointer-to-{to} conversion is migration-unsafe", line
                )
            if not isinstance(frm, PrimType):
                raise TypeCheckError(f"cannot convert {frm} to {to}", line)
            if frm.kind == to.kind:
                return expr
            cast = A.Cast(to=to, operand=expr, line=line)
            cast.ctype = to
            return cast
        if isinstance(to, StructType) or isinstance(to, ArrayType):
            raise TypeCheckError(f"cannot convert to aggregate type {to}", line)
        if isinstance(to, VoidType):
            return expr
        raise TypeCheckError(f"cannot convert {frm} to {to}", line)
