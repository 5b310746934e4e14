"""Tokenizer for the migration-safe C subset.

Handles the usual C token classes plus a tiny preprocessor: ``#include``
lines are ignored (the runtime library is built in), and object-like
``#define NAME value`` macros are substituted textually (enough for the
workloads' ``#define N 100`` style constants).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]


class LexError(Exception):
    """Raised for unrecognizable input."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


KEYWORDS = frozenset(
    """
    void char short int long unsigned signed float double
    struct union enum typedef sizeof
    if else while do for return break continue switch case default goto
    static extern const register volatile auto
    """.split()
)

#: token kinds: kw, id, int, float, char, str, punct, eof
@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.value!r}, line={self.line})"


_PUNCTS = [
    # three-char first, then two, then one (maximal munch)
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<float>  (?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fF]? | \d+[eE][+-]?\d+[fF]? | \d+\.\d*[fF] | \d+[fF](?![\w]) )
  | (?P<int>    0[xX][0-9a-fA-F]+[uUlL]* | \d+[uUlL]* )
  | (?P<id>     [A-Za-z_]\w* )
  | (?P<char>   '(?:\\(?:x[0-9a-fA-F]+|.)|[^'\\])' )
  | (?P<str>    "(?:\\.|[^"\\])*" )
  | (?P<punct>  %s )
  | (?P<ws>     [ \t\r]+ )
  | (?P<nl>     \n )
    """
    % "|".join(re.escape(p) for p in _PUNCTS),
    re.VERBOSE,
)

_LINE_COMMENT_RE = re.compile(r"//[^\n]*")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_DEFINE_RE = re.compile(r"^\s*#\s*define\s+([A-Za-z_]\w*)\s+(.*?)\s*$")
_HASH_RE = re.compile(r"^\s*#")

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "a": "\a",
}


def _unescape(body: str, line: int) -> str:
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body):
                raise LexError("dangling escape", line)
            esc = body[i]
            if esc in _ESCAPES:
                out.append(_ESCAPES[esc])
            elif esc == "x":
                j = i + 1
                while j < len(body) and body[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 1:
                    raise LexError("bad hex escape", line)
                out.append(chr(int(body[i + 1 : j], 16)))
                i = j - 1
            else:
                raise LexError(f"unknown escape \\{esc}", line)
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def _preprocess(source: str) -> tuple[str, dict[str, str]]:
    """Strip comments, record ``#define`` macros, blank out other # lines.

    Comments and directives are replaced by equivalent whitespace so line
    numbers in diagnostics stay correct.
    """
    def _blank(m: re.Match[str]) -> str:
        return "".join("\n" if c == "\n" else " " for c in m.group(0))

    source = _BLOCK_COMMENT_RE.sub(_blank, source)
    source = _LINE_COMMENT_RE.sub(_blank, source)

    defines: dict[str, str] = {}
    out_lines: list[str] = []
    for line in source.split("\n"):
        m = _DEFINE_RE.match(line)
        if m:
            defines[m.group(1)] = m.group(2)
            out_lines.append("")
        elif _HASH_RE.match(line):
            out_lines.append("")  # #include and friends: the runtime is built in
        else:
            out_lines.append(line)
    return "\n".join(out_lines), defines


def tokenize(source: str) -> list[Token]:
    """Tokenize C *source*, returning a list ending with an ``eof`` token."""
    text, defines = _preprocess(source)
    tokens: list[Token] = []
    _scan(text, 1, tokens, defines, depth=0)
    last_line = tokens[-1].line if tokens else 1
    tokens.append(Token("eof", "", last_line))
    return tokens


def _scan(
    text: str, line: int, out: list[Token], defines: dict[str, str], depth: int
) -> int:
    """Scan *text* starting at *line*, appending tokens; returns final line."""
    if depth > 16:
        raise LexError("macro expansion too deep", line)
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise LexError(f"unexpected character {text[pos]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
        elif kind == "ws":
            pass
        elif kind == "id":
            if value in defines:
                # textual macro substitution (object-like macros only)
                line = _scan(defines[value], line, out, defines, depth + 1)
            elif value in KEYWORDS:
                out.append(Token("kw", value, line))
            else:
                out.append(Token("id", value, line))
        elif kind == "int":
            out.append(Token("int", value, line))
        elif kind == "float":
            out.append(Token("float", value, line))
        elif kind == "char":
            body = _unescape(value[1:-1], line)
            if len(body) != 1:
                raise LexError(f"bad character literal {value}", line)
            out.append(Token("char", str(ord(body)), line))
        elif kind == "str":
            out.append(Token("str", _unescape(value[1:-1], line), line))
        elif kind == "punct":
            out.append(Token("punct", value, line))
        else:  # pragma: no cover - regex is exhaustive
            raise LexError(f"bad token {value!r}", line)
    return line
