"""Tokenizer for the emitter's Verilog subset: one compiled scanner.

``_SCANNER`` is the whole lexical grammar — one alternative per token
kind, longest punctuation first, comments and compiler directives as
skipped alternatives, and a last alternative that matches any character
at all, so no input is ever stepped over silently.  Each match also takes
the blanks behind its token; :func:`tokenize` only dispatches on
``lastgroup``.  Line numbers come from the newline alternative and a
``str.count`` over block comments.  Every alternative is linear in the
text it looks at (no quantifier inside a quantifier).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import VsimParseError

_SCANNER = re.compile(
    r"""(?:
      (?P<id>      [A-Za-z_$][A-Za-z0-9_$]* )
    | (?P<newline> \n )
    | (?P<skip>    //[^\n]* | `[^\n]* | [ \t\r]+ )   # comment, directive
    | (?P<block>   /\* (?s:.*?) \*/ )
    | (?P<open>    /\* )                             # ... never closed
    | (?P<punct>   >>> | [<>=!]= | && | \|\| | << | >> | \+:
                 | [-+*/%&|^~!<>?:=()\[\]{},;.\#@] )
    | (?P<sized>   (?P<size>\d*) ' (?P<body> [dD][0-9_]* | [hH][0-9a-fA-F_]*
                                           | [bB][01_]*  | [oO][0-7_]* ) )
    | (?P<base>    \d* ' )                           # ... no base letter
    | (?P<int>     \d+ )
    | (?P<string>  "[^"]*" )        # testbench $display text, one token
    | (?P<quote>   " )                               # ... never closed
    | (?P<other>   [\s\S] )
    )[ \t\r]*""",
    re.VERBOSE,
)
_RADIX = {"d": 10, "h": 16, "b": 2, "o": 8}
_ERRORS = {
    "open": "unterminated block comment",
    "quote": "unterminated string",
    "base": "bad number base after '",
}


@dataclass(slots=True)
class Token:
    kind: str  # "id" | "num" | "punct" | "string" | "eof"
    text: str
    line: int
    value: int = 0
    width: int | None = None  # for sized number literals


def tokenize(source: str) -> list[Token]:
    """Tokenize Verilog source, skipping comments and compiler directives."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    for m in _SCANNER.finditer(source):
        kind = m.lastgroup
        if kind == "id" or kind == "punct" or kind == "string":
            append(Token(kind, m[kind], line))
        elif kind == "newline":
            line += 1
        elif kind == "int":
            text = m[kind]
            append(Token("num", text, line, int(text)))
        elif kind == "sized":  # 64'hdead_beef, 4'b1010, 'd5
            text, size, body = m.group(kind, "size", "body")
            width = int(size) if size else 32
            digits = body[1:].replace("_", "")
            if not digits:
                raise VsimParseError(f"line {line}: empty number literal")
            value = int(digits, _RADIX[body[0].lower()])
            append(Token("num", text, line, value & ((1 << width) - 1), width))
        elif kind == "block":
            line += source.count("\n", m.start(), m.end())
        elif kind != "skip":  # open, quote, base, other
            message = _ERRORS.get(kind) or f"unexpected character {m[kind]!r}"
            raise VsimParseError(f"line {line}: {message}")
    append(Token("eof", "", line))
    return tokens
