"""Recursive-descent parser for the migration-safe C subset.

The subset covers what the paper's workloads and pre-compiler need:

- declarations: primitives (all signed/unsigned integer widths, float,
  double), pointers, fixed-size (multi-dimensional) arrays, ``struct``
  (including self-referential via pointers), ``typedef``;
- statements: blocks, ``if/else``, ``while``, ``do/while``, ``for``,
  ``switch/case/default``, ``return``, ``break``, ``continue``,
  expression and declaration statements, and the explicit poll-point
  intrinsic ``migrate_here();``;
- expressions: the full C operator set at standard precedence (assignment
  and compound assignment, ternary, logical, bitwise, shifts, comparisons,
  arithmetic, casts, ``sizeof``, unary ops incl. ``*``/``&`` and pre/post
  increment, calls, indexing, ``.``/``->``).

Deliberately *not* parsed (they are migration-unsafe and are reported by
:mod:`repro.clang.unsafe` when encountered): ``union``, function pointers,
``goto``, varargs definitions, ``static`` locals (their persistence would
be silently lost).  ``const``/``register``/``volatile`` and file-scope
``static`` are accepted and ignored, as a pre-compiler would.  ``enum``
is supported (enumerators become ``int`` constants).
"""

from __future__ import annotations

import operator
from typing import Optional

from repro.clang import cast as A
from repro.clang.ctypes import (
    ArrayType,
    CHAR,
    CType,
    DOUBLE,
    FLOAT,
    FuncType,
    INT,
    LLONG,
    LONG,
    PointerType,
    PrimType,
    SHORT,
    StructType,
    UCHAR,
    UINT,
    ULLONG,
    ULONG,
    USHORT,
    VOID,
    VoidType,
)
from repro.clang.lexer import Token, tokenize

__all__ = ["ParseError", "Parser", "const_value", "parse"]


class ParseError(Exception):
    """Syntax or simple semantic error during parsing."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


_TYPE_KEYWORDS = frozenset(
    ("void", "char", "short", "int", "long", "unsigned", "signed", "float", "double",
     "struct", "union", "enum", "const", "static", "extern", "register", "volatile",
     "auto")
)

_QUALIFIERS = frozenset(("const", "static", "extern", "register", "volatile", "auto"))

#: name of the explicit poll-point intrinsic
POLL_INTRINSIC = "migrate_here"


class Parser:
    """One-pass parser producing a :class:`repro.clang.cast.TranslationUnit`."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self.structs: dict[str, StructType] = {}
        self.typedefs: dict[str, CType] = {}
        self.enum_constants: dict[str, int] = {}
        self._anon_counter = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        t = self.tok
        if t.kind != kind or (value is not None and t.value != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {t.value!r}", t.line)
        return self.advance()

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        t = self.tok
        if t.kind == kind and (value is None or t.value == value):
            return self.advance()
        return None

    def _err(self, message: str) -> ParseError:
        return ParseError(message, self.tok.line)

    # -- entry point -----------------------------------------------------------

    def parse(self) -> A.TranslationUnit:
        """Parse the whole translation unit."""
        unit = A.TranslationUnit(line=1)
        while self.tok.kind != "eof":
            self._parse_top_level(unit)
        unit.structs = dict(self.structs)
        return unit

    def _parse_top_level(self, unit: A.TranslationUnit) -> None:
        line = self.tok.line
        if self.accept("kw", "typedef"):
            base = self._parse_base_type()
            name, ctype = self._parse_declarator(base)
            self.expect("punct", ";")
            self.typedefs[name] = ctype
            return

        if self.tok.kind == "kw" and self.tok.value == "union":
            raise self._err("union is migration-unsafe and not supported")

        # enum definition with no declarator: `enum tag { ... };`
        if (
            self.tok.kind == "kw"
            and self.tok.value == "enum"
            and (self.peek().value == "{" or self.peek(2).value == "{")
        ):
            save = self.pos
            self._parse_base_type()
            if self.accept("punct", ";"):
                return
            self.pos = save
            base = self._parse_base_type()
            name, ctype = self._parse_declarator(base)
            # fall through to the generic declarator handling below by
            # re-entering: simplest is to treat it as a global variable
            while True:
                init = None
                init_list = None
                if self.accept("punct", "="):
                    if self.tok.value == "{":
                        init_list = self._parse_init_list()
                    else:
                        init = self._parse_assignment()
                unit.globals.append(
                    A.GlobalVar(name=name, ctype=ctype, init=init, init_list=init_list, line=line)
                )
                if self.accept("punct", ","):
                    name, ctype = self._parse_declarator(base)
                    continue
                self.expect("punct", ";")
                break
            return

        # struct definition with no declarator: `struct tag { ... };`
        if (
            self.tok.kind == "kw"
            and self.tok.value == "struct"
            and self.peek().kind == "id"
            and self.peek(2).value == "{"
        ):
            self._parse_base_type()
            self.expect("punct", ";")
            return

        base = self._parse_base_type()
        if self.accept("punct", ";"):
            return  # bare `struct {...};` or stray type
        name, ctype = self._parse_declarator(base)

        if isinstance(ctype, FuncType):
            if self.accept("punct", ";"):
                return  # prototype — bodies are what we execute
            body = self._parse_block()
            params = self._pending_params
            unit.functions.append(
                A.FuncDef(name=name, ret=ctype.ret, params=params, body=body, line=line)
            )
            return

        # global variable(s)
        while True:
            init = None
            init_list = None
            if self.accept("punct", "="):
                if self.tok.value == "{":
                    init_list = self._parse_init_list()
                else:
                    init = self._parse_assignment()
            unit.globals.append(
                A.GlobalVar(name=name, ctype=ctype, init=init, init_list=init_list, line=line)
            )
            if self.accept("punct", ","):
                name, ctype = self._parse_declarator(base)
                continue
            self.expect("punct", ";")
            break

    # -- types ----------------------------------------------------------------

    def _is_type_start(self, tok: Token) -> bool:
        if tok.kind == "kw" and tok.value in _TYPE_KEYWORDS:
            return True
        return tok.kind == "id" and tok.value in self.typedefs

    def _parse_base_type(self) -> CType:
        """Parse a type specifier (possibly a struct definition)."""
        while self.tok.kind == "kw" and self.tok.value in _QUALIFIERS:
            self.advance()

        t = self.tok
        if t.kind == "id" and t.value in self.typedefs:
            self.advance()
            return self.typedefs[t.value]

        if t.kind != "kw":
            raise self._err(f"expected type, found {t.value!r}")

        if t.value == "union":
            raise self._err("union is migration-unsafe and not supported")

        if t.value == "struct":
            self.advance()
            return self._parse_struct_spec()

        if t.value == "enum":
            self.advance()
            return self._parse_enum_spec()

        # collect primitive specifier words
        words: list[str] = []
        while self.tok.kind == "kw" and self.tok.value in (
            "void", "char", "short", "int", "long", "unsigned", "signed",
            "float", "double",
        ):
            words.append(self.advance().value)
            while self.tok.kind == "kw" and self.tok.value in _QUALIFIERS:
                self.advance()
        if not words:
            raise self._err(f"expected type, found {self.tok.value!r}")
        return self._prim_from_words(words, t.line)

    def _prim_from_words(self, words: list[str], line: int) -> CType:
        unsigned = "unsigned" in words
        signed = "signed" in words
        if unsigned and signed:
            raise ParseError("both signed and unsigned", line)
        core = [w for w in words if w not in ("unsigned", "signed")]
        key = " ".join(core) or "int"
        table = {
            "void": VOID,
            "char": UCHAR if unsigned else CHAR,
            "short": USHORT if unsigned else SHORT,
            "short int": USHORT if unsigned else SHORT,
            "int": UINT if unsigned else INT,
            "long": ULONG if unsigned else LONG,
            "long int": ULONG if unsigned else LONG,
            "long long": ULLONG if unsigned else LLONG,
            "long long int": ULLONG if unsigned else LLONG,
            "float": FLOAT,
            "double": DOUBLE,
            "long double": DOUBLE,  # modeled as double
        }
        if key not in table:
            raise ParseError(f"unsupported type specifier {' '.join(words)!r}", line)
        return table[key]

    def _parse_struct_spec(self) -> StructType:
        tag: Optional[str] = None
        if self.tok.kind == "id":
            tag = self.advance().value
        if self.tok.value != "{":
            if tag is None:
                raise self._err("anonymous struct must have a body")
            # forward/usage reference
            stype = self.structs.get(tag)
            if stype is None:
                stype = StructType(tag)
                self.structs[tag] = stype
            return stype

        if tag is None:
            self._anon_counter += 1
            tag = f"__anon_{self._anon_counter}"
        stype = self.structs.get(tag)
        if stype is None:
            stype = StructType(tag)
            self.structs[tag] = stype
        elif stype.is_complete:
            raise self._err(f"struct {tag} redefined")

        self.expect("punct", "{")
        fields: list[tuple[str, CType]] = []
        while not self.accept("punct", "}"):
            base = self._parse_base_type()
            while True:
                fname, ftype = self._parse_declarator(base)
                fields.append((fname, ftype))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ";")
        stype.define(fields)
        return stype

    def _parse_enum_spec(self) -> CType:
        """Parse an enum specifier; enumerators become int constants and
        the enum type itself is ``int`` (the common ABI)."""
        if self.tok.kind == "id":
            self.advance()  # tag recorded for syntax only
        if self.accept("punct", "{"):
            next_value = 0
            while not self.accept("punct", "}"):
                name_tok = self.expect("id")
                if self.accept("punct", "="):
                    next_value = self._parse_const_int()
                if name_tok.value in self.enum_constants:
                    raise ParseError(
                        f"duplicate enumerator {name_tok.value!r}", name_tok.line
                    )
                self.enum_constants[name_tok.value] = next_value
                next_value += 1
                if not self.accept("punct", ","):
                    self.expect("punct", "}")
                    break
        return INT

    def _parse_declarator(self, base: CType) -> tuple[str, CType]:
        """Parse ``* ... name [dims] | name(params)`` over *base*."""
        ctype = base
        while self.accept("punct", "*"):
            while self.tok.kind == "kw" and self.tok.value in _QUALIFIERS:
                self.advance()
            ctype = PointerType(ctype)

        if self.tok.value == "(":
            raise self._err("parenthesized declarators (function pointers) are migration-unsafe")

        name_tok = self.expect("id")
        name = name_tok.value

        if self.tok.value == "(":
            params = self._parse_params()
            self._pending_params = params
            return name, FuncType(ctype, tuple(p.ctype for p in params))

        return name, self._parse_dims(ctype)

    def _parse_dims(self, ctype: CType) -> CType:
        """The ``[n]`` suffixes of a declarator or type-name, on *ctype*."""
        dims: list[int] = []
        while self.accept("punct", "["):
            dims.append(self._parse_const_int())
            if dims[-1] <= 0:
                raise self._err("array length must be positive")
            self.expect("punct", "]")
        for d in reversed(dims):
            ctype = ArrayType(ctype, d)
        return ctype

    def _parse_abstract_type(self) -> CType:
        """Parse a type-name (for casts and sizeof): base + ``*``s + dims."""
        base = self._parse_base_type()
        ctype = base
        while self.accept("punct", "*"):
            ctype = PointerType(ctype)
        return self._parse_dims(ctype)

    def _parse_params(self) -> list[A.Param]:
        self.expect("punct", "(")
        params: list[A.Param] = []
        if self.accept("punct", ")"):
            return params
        if self.tok.kind == "kw" and self.tok.value == "void" and self.peek().value == ")":
            self.advance()
            self.expect("punct", ")")
            return params
        while True:
            if self.tok.value == "...":
                raise self._err("varargs functions are migration-unsafe")
            line = self.tok.line
            base = self._parse_base_type()
            pname, ptype = self._parse_declarator_opt_name(base)
            if isinstance(ptype, ArrayType):
                ptype = PointerType(ptype.elem)  # array params decay
            params.append(A.Param(name=pname, ctype=ptype, line=line))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        return params

    def _parse_declarator_opt_name(self, base: CType) -> tuple[str, CType]:
        """Declarator whose name may be omitted (prototypes)."""
        ctype = base
        while self.accept("punct", "*"):
            ctype = PointerType(ctype)
        name = ""
        if self.tok.kind == "id":
            name = self.advance().value
        dims: list[int] = []
        while self.accept("punct", "["):
            if self.tok.value == "]":
                dims.append(0)  # `a[]` param — decays anyway
                self.advance()
                continue
            dims.append(self._parse_const_int())
            self.expect("punct", "]")
        for d in reversed(dims):
            ctype = ArrayType(ctype, max(d, 1))
        return name, ctype

    def _parse_const_int(self) -> int:
        expr = self._parse_ternary()
        value = const_value(expr)
        if not isinstance(value, int):
            raise ParseError("expected integer constant expression", expr.line)
        return value

    def _parse_init_list(self) -> list[A.Expr]:
        self.expect("punct", "{")
        items: list[A.Expr] = []
        while self.tok.value != "}":
            items.append(self._parse_assignment())
            if not self.accept("punct", ","):
                break
        self.expect("punct", "}")
        return items

    # -- statements -------------------------------------------------------------

    def _parse_block(self) -> A.Block:
        line = self.tok.line
        self.expect("punct", "{")
        body: list[A.Stmt] = []
        while not self.accept("punct", "}"):
            body.append(self._parse_statement())
        return A.Block(body=body, line=line)

    def _parse_statement(self) -> A.Stmt:
        t = self.tok
        line = t.line

        if t.value == "{":
            return self._parse_block()

        if t.kind == "kw":
            if t.value == "if":
                self.advance()
                self.expect("punct", "(")
                cond = self._parse_expression()
                self.expect("punct", ")")
                then = self._parse_statement()
                other = self._parse_statement() if self.accept("kw", "else") else None
                return A.If(cond=cond, then=then, other=other, line=line)
            if t.value == "while":
                self.advance()
                self.expect("punct", "(")
                cond = self._parse_expression()
                self.expect("punct", ")")
                body = self._parse_statement()
                return A.While(cond=cond, body=body, line=line)
            if t.value == "do":
                self.advance()
                body = self._parse_statement()
                self.expect("kw", "while")
                self.expect("punct", "(")
                cond = self._parse_expression()
                self.expect("punct", ")")
                self.expect("punct", ";")
                return A.DoWhile(body=body, cond=cond, line=line)
            if t.value == "for":
                self.advance()
                self.expect("punct", "(")
                init = None if self.tok.value == ";" else self._parse_expression()
                self.expect("punct", ";")
                cond = None if self.tok.value == ";" else self._parse_expression()
                self.expect("punct", ";")
                step = None if self.tok.value == ")" else self._parse_expression()
                self.expect("punct", ")")
                body = self._parse_statement()
                return A.For(init=init, cond=cond, step=step, body=body, line=line)
            if t.value == "return":
                self.advance()
                value = None if self.tok.value == ";" else self._parse_expression()
                self.expect("punct", ";")
                return A.Return(value=value, line=line)
            if t.value == "break":
                self.advance()
                self.expect("punct", ";")
                return A.Break(line=line)
            if t.value == "continue":
                self.advance()
                self.expect("punct", ";")
                return A.Continue(line=line)
            if t.value == "switch":
                return self._parse_switch()
            if t.value == "goto":
                raise self._err("goto is migration-unsafe and not supported")
            if t.value == "static":
                # a static local would silently lose its persistence in
                # our frame model; refuse rather than mis-execute
                raise self._err(
                    "static local variables are not supported; use a global"
                )
            if t.value in _TYPE_KEYWORDS:
                return self._parse_decl_stmt()

        if t.kind == "id" and t.value in self.typedefs and self.peek().kind in ("id", "punct"):
            # `mytype x;` vs expression starting with a typedef'd name —
            # a declaration iff followed by `*` or an identifier.
            nxt = self.peek()
            if nxt.value == "*" or nxt.kind == "id":
                return self._parse_decl_stmt()

        if t.kind == "id" and t.value == POLL_INTRINSIC and self.peek().value == "(":
            self.advance()
            self.expect("punct", "(")
            self.expect("punct", ")")
            self.expect("punct", ";")
            return A.PollHint(line=line)

        if self.accept("punct", ";"):
            return A.Block(body=[], line=line)  # empty statement

        expr = self._parse_expression()
        self.expect("punct", ";")
        return A.ExprStmt(expr=expr, line=line)

    def _parse_decl_stmt(self) -> A.DeclStmt:
        line = self.tok.line
        base = self._parse_base_type()
        decls: list[A.Decl] = []
        while True:
            name, ctype = self._parse_declarator(base)
            if isinstance(ctype, FuncType):
                raise ParseError("local function declarations are not supported", line)
            init = None
            init_list = None
            if self.accept("punct", "="):
                if self.tok.value == "{":
                    init_list = self._parse_init_list()
                else:
                    init = self._parse_assignment()
            decls.append(A.Decl(name=name, ctype=ctype, init=init, init_list=init_list, line=line))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ";")
        return A.DeclStmt(decls=decls, line=line)

    def _parse_switch(self) -> A.Switch:
        line = self.tok.line
        self.expect("kw", "switch")
        self.expect("punct", "(")
        cond = self._parse_expression()
        self.expect("punct", ")")
        self.expect("punct", "{")
        cases: list[A.SwitchCase] = []
        current: Optional[A.SwitchCase] = None
        while not self.accept("punct", "}"):
            if self.accept("kw", "case"):
                value = self._parse_const_int()
                self.expect("punct", ":")
                current = A.SwitchCase(value=value, line=self.tok.line)
                cases.append(current)
            elif self.accept("kw", "default"):
                self.expect("punct", ":")
                current = A.SwitchCase(value=None, line=self.tok.line)
                cases.append(current)
            else:
                if current is None:
                    raise self._err("statement before first case label")
                current.body.append(self._parse_statement())
        return A.Switch(cond=cond, cases=cases, line=line)

    # -- expressions -------------------------------------------------------------

    def _parse_expression(self) -> A.Expr:
        expr = self._parse_assignment()
        while self.accept("punct", ","):
            # comma operator: evaluate-and-discard left; model as Binary ","
            right = self._parse_assignment()
            expr = A.Binary(op=",", left=expr, right=right, line=expr.line)
        return expr

    _ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

    def _parse_assignment(self) -> A.Expr:
        left = self._parse_ternary()
        t = self.tok
        if t.kind == "punct" and t.value in self._ASSIGN_OPS:
            self.advance()
            value = self._parse_assignment()
            op = "" if t.value == "=" else t.value[:-1]
            return A.Assign(op=op, target=left, value=value, line=t.line)
        return left

    def _parse_ternary(self) -> A.Expr:
        cond = self._parse_binary(0)
        if self.accept("punct", "?"):
            then = self._parse_expression()
            self.expect("punct", ":")
            other = self._parse_ternary()
            return A.Cond(cond=cond, then=then, other=other, line=cond.line)
        return cond

    # binary operator precedence table, lowest first
    _BIN_LEVELS: list[tuple[str, ...]] = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def _parse_binary(self, level: int) -> A.Expr:
        if level >= len(self._BIN_LEVELS):
            return self._parse_unary()
        ops = self._BIN_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self.tok.kind == "punct" and self.tok.value in ops:
            op = self.advance().value
            right = self._parse_binary(level + 1)
            left = A.Binary(op=op, left=left, right=right, line=left.line)
        return left

    def _parse_unary(self) -> A.Expr:
        t = self.tok
        if t.kind == "punct":
            if t.value in ("-", "+", "!", "~", "*", "&"):
                self.advance()
                operand = self._parse_unary()
                if t.value == "+":
                    return operand
                return A.Unary(op=t.value, operand=operand, line=t.line)
            if t.value in ("++", "--"):
                self.advance()
                operand = self._parse_unary()
                return A.Unary(op=t.value, operand=operand, line=t.line)
            if t.value == "(" and self._is_type_start(self.peek()):
                self.advance()
                to = self._parse_abstract_type()
                self.expect("punct", ")")
                operand = self._parse_unary()
                return A.Cast(to=to, operand=operand, line=t.line)
        if t.kind == "kw" and t.value == "sizeof":
            self.advance()
            if self.tok.value == "(" and self._is_type_start(self.peek()):
                self.expect("punct", "(")
                of = self._parse_abstract_type()
                self.expect("punct", ")")
                return A.SizeofType(of=of, line=t.line)
            operand = self._parse_unary()
            return A.SizeofExpr(operand=operand, line=t.line)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            t = self.tok
            if t.value == "(" and isinstance(expr, A.Ident):
                self.advance()
                args: list[A.Expr] = []
                if self.tok.value != ")":
                    while True:
                        args.append(self._parse_assignment())
                        if not self.accept("punct", ","):
                            break
                self.expect("punct", ")")
                expr = A.Call(func=expr.name, args=args, line=expr.line)
            elif t.value == "(":
                raise ParseError(
                    "calls through expressions (function pointers) are migration-unsafe",
                    t.line,
                )
            elif self.accept("punct", "["):
                index = self._parse_expression()
                self.expect("punct", "]")
                expr = A.Index(base=expr, index=index, line=t.line)
            elif self.accept("punct", "."):
                name = self.expect("id").value
                expr = A.Member(base=expr, name=name, arrow=False, line=t.line)
            elif self.accept("punct", "->"):
                name = self.expect("id").value
                expr = A.Member(base=expr, name=name, arrow=True, line=t.line)
            elif self.accept("punct", "++"):
                expr = A.Unary(op="p++", operand=expr, line=t.line)
            elif self.accept("punct", "--"):
                expr = A.Unary(op="p--", operand=expr, line=t.line)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        t = self.tok
        if t.kind == "int":
            self.advance()
            text = t.value.rstrip("uUlL")
            value = int(text, 0)
            suffix = t.value[len(text):].lower()
            return A.IntLit(value=value, unsigned="u" in suffix, long="l" in suffix, line=t.line)
        if t.kind == "float":
            self.advance()
            single = t.value[-1] in "fF"
            text = t.value.rstrip("fF")
            return A.FloatLit(value=float(text), single=single, line=t.line)
        if t.kind == "char":
            self.advance()
            return A.CharLit(value=int(t.value), line=t.line)
        if t.kind == "str":
            self.advance()
            return A.StringLit(value=t.value, line=t.line)
        if t.kind == "id":
            self.advance()
            if t.value == "NULL":
                return A.Null(line=t.line)
            if t.value in self.enum_constants:
                return A.IntLit(value=self.enum_constants[t.value], line=t.line)
            return A.Ident(name=t.value, line=t.line)
        if t.value == "(":
            self.advance()
            expr = self._parse_expression()
            self.expect("punct", ")")
            return expr
        raise self._err(f"unexpected token {t.value!r}")


def _c_div(a: int, b: int) -> int:
    """C integer division (truncation toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


_INT_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _c_div,
    "%": lambda a, b: a - _c_div(a, b) * b,
    "<<": operator.lshift,
    ">>": operator.rshift,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
}
_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
#: (bits, signed) of the integer kinds every architecture sizes alike: a
#: cast to one wraps as C's does (``long`` and plain ``char`` vary, and
#: wrap where the value is stored)
_CAST_BITS = {
    "uchar": (8, False), "short": (16, True), "ushort": (16, False),
    "int": (32, True), "uint": (32, False), "llong": (64, True), "ullong": (64, False),
}


def const_value(expr: A.Expr) -> Optional[int | float]:
    """The value of a constant expression — an array length, a case
    label, a global initializer — or ``None`` if *expr* is not one.
    Integer arithmetic is C's (division truncates toward zero), a float
    operand makes it floating, ``NULL`` is 0, and a cast converts: to a
    floating type a float, to any other type an int."""
    if isinstance(expr, (A.IntLit, A.CharLit, A.FloatLit)):
        return expr.value
    if isinstance(expr, A.Null):
        return 0
    if isinstance(expr, A.Cast):
        v = const_value(expr.operand)
        if v is None:
            return None
        if isinstance(expr.to, PrimType) and expr.to.is_float:
            return float(v)
        v = int(v)
        bits, signed = _CAST_BITS.get(getattr(expr.to, "kind", None), (0, False))
        if bits:
            v &= (1 << bits) - 1
            if signed and v >> (bits - 1):
                v -= 1 << bits
        return v
    if isinstance(expr, A.Unary):
        v = const_value(expr.operand)
        if v is None:
            return None
        if expr.op == "-":
            return -v
        if expr.op == "~" and isinstance(v, int):
            return ~v
        return None
    if isinstance(expr, A.Binary):
        a, b = const_value(expr.left), const_value(expr.right)
        if a is None or b is None:
            return None
        floating = isinstance(a, float) or isinstance(b, float)
        fn = (_FLOAT_OPS if floating else _INT_OPS).get(expr.op)
        try:
            return None if fn is None else fn(a, b)
        except (ZeroDivisionError, ValueError):  # x / 0, a negative shift
            return None
    return None


def parse(source: str) -> A.TranslationUnit:
    """Parse C *source* into a translation unit."""
    return Parser(source).parse()
