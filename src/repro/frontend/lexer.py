"""Lexer for the C subset accepted by the CGPA frontend: one compiled scanner.

The subset covers what the five benchmark kernels and typical irregular
pointer-chasing code need: the usual operators, control keywords,
``struct``/``typedef`` declarations, integer/float literals, and comments.

``_SCANNER`` is the whole lexical grammar — one alternative per token
kind, longest operator first, comments as skipped alternatives, and a
last alternative that matches any character at all, so no input is ever
stepped over silently.  Each match also takes the blanks (and integer
suffixes) behind its token; :func:`tokenize` only dispatches on
``lastgroup``.  A token's line is a count of the newlines scanned so far
and its column the distance from the last of them, both read off match
offsets.  Every alternative is linear in the text it looks at (no
quantifier inside a quantifier).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import LexerError

KEYWORDS = {
    "void", "int", "char", "float", "double", "unsigned", "long",
    "struct", "typedef", "if", "else", "for", "while", "do", "return",
    "break", "continue", "sizeof", "const",
}

_SCANNER = re.compile(
    r"""(?:
      (?P<ident>    [^\W\d]\w* )
    | (?P<newline>  \n )
    | (?P<comment>  //[^\n]* )
    | (?P<block>    /\* (?s:.*?) \*/ )
    | (?P<open>     /\* )                            # ... never closed
    | (?P<float>    (?: \d+\.\d* | \.\d+ ) (?: [eE][+-]?\d* )?
                  | \d+ [eE][+-]?\d* )  (?: (?P<f>[fF]) | [uUlL]* )
    | (?P<int>      0[xX][0-9a-fA-F]* | \d+ ) [uUlL]*
    | (?P<op>       <<= | >>= | -> | \+\+ | -- | << | >> | && | \|\|
                  | [-+*/%&|^<>=!]= | [-+*/%<>=!&|^~?:.,;(){}\[\]] )
    | (?P<escape>   '\\ (?P<escaped>[\s\S]) ' )      # hash keys etc.
    | (?P<char>     ' [\s\S] ' )
    | (?P<quote>    ' )                              # ... no such literal
    | (?P<blank>    [ \t\r]+ )
    | (?P<other>    [\s\S] )
    )[ \t\r]*""",
    re.VERBOSE,
)
_ESCAPES = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39}
_ERRORS = {
    "open": "unterminated block comment",
    "quote": "malformed character literal",
}


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position."""

    kind: str  # 'ident', 'keyword', 'int', 'float', 'op', 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @{self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Convert C source text into a token list ending with an ``eof`` token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    before = 1  # column of a character = its offset + before
    end = len(source)
    for m in _SCANNER.finditer(source):
        kind = m.lastgroup
        column = m.start() + before
        if kind == "ident":
            text = m[kind]
            append(Token("keyword" if text in KEYWORDS else "ident", text, line, column))
        elif kind == "op" or kind == "int":
            append(Token(kind, m[kind], line, column))
        elif kind == "newline":
            line += 1
            before = -m.start()
        elif kind == "block":
            newlines = source.count("\n", m.start(), m.end())
            if newlines:
                line += newlines
                before = -source.rfind("\n", m.start(), m.end())
        elif kind == "float" or kind == "f":  # f: a float and its suffix
            text = m["float"]
            if text[-1] in "eE+-":
                raise LexerError("malformed float exponent", line, column)
            append(Token("float", text + "f" if kind == "f" else text, line, column))
        elif kind == "char":
            append(Token("int", str(ord(m[kind][1])), line, column))
        elif kind == "escape":
            escaped = m["escaped"]
            if escaped not in _ESCAPES:
                raise LexerError(f"unsupported escape '\\{escaped}'", line, column)
            append(Token("int", str(_ESCAPES[escaped]), line, column))
        elif kind == "comment":
            # A closing line comment does not move the eof token's column.
            if m.end() == end:
                end = m.start()
        elif kind != "blank":  # open, quote, other
            message = _ERRORS.get(kind) or f"unexpected character {m[kind]!r}"
            raise LexerError(message, line, column)
    append(Token("eof", "", line, end + before))
    return tokens
