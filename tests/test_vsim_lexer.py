"""The Verilog scanner (repro.vsim.lexer), directly.

Five things: (a) digests of the token stream and the AST of every module
the nine kernels emit, pinned from the character-loop lexer and the
ten-level recursive parser they replaced; (b) every error path with its
exact message and line; (c) maximal munch; (d) a hypothesis round trip
from the token alphabet through random layout and back; and (e) hostile
text ends in a token list or a ``VsimParseError`` inside a bound.

The digests are *not* regenerated from this checkout: they say "the same
tokens and trees as the parent of PR 23", so a new value comes only from
a checkout whose lexer and parser are known good —
``PYTHONPATH=<that checkout>/src python -c "import tests.test_vsim_lexer
as t; print(t.compute_digests())"``.
"""

import hashlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.build import compile_kernel
from repro.kernels import ALL_KERNELS
from repro.pipeline import ReplicationPolicy
from repro.rtl import generate_verilog_hierarchy
from repro.vsim import VsimParseError, parse_verilog
from repro.vsim.lexer import tokenize

#: kernel -> (token digest, AST digest): sha256, first 16 hex digits.
PINNED = {
    "K-means": ("f1680456900799fc", "80eb3dada665d3b9"),
    "Hash-indexing": ("f82f90d4d9232ceb", "003d63a7d13a19dc"),
    "ks": ("3461132a386139b1", "6dddc015f0211d7a"),
    "em3d": ("47179daedde43121", "24cb25ab1dd5f7f0"),
    "1D-Gaussblur": ("6b2fea4392c04ed6", "5be7f9134d0f1daa"),
    "bfs": ("6d9d812ca4c62b24", "6a75e0b0a681a3b9"),
    "hash-join": ("1ed5c06a54ce5455", "37f66dd4e7766f4b"),
    "spmv": ("cf3415fda1e3571a", "5c627519062a6b1b"),
    "top-k": ("b4790b6a6ff18951", "78746cdbfc115587"),
}


def emitted_texts(spec) -> list[str]:
    """Verilog of every module of ``spec`` at four workers, by policy."""
    policies = [ReplicationPolicy.P1, ReplicationPolicy.NONE]
    if spec.supports_p2:
        policies.append(ReplicationPolicy.P2)
    texts = []
    for policy in policies:
        result = compile_kernel(spec, policy, 4).result
        texts += [
            generate_verilog_hierarchy(function)
            for function in [*result.tasks, result.parent]
        ]
    return texts


def digests_of(texts: list[str]) -> tuple[str, str]:
    tokens, trees = hashlib.sha256(), hashlib.sha256()
    for text in texts:
        for t in tokenize(text):
            tokens.update(repr((t.kind, t.text, t.line, t.value, t.width)).encode())
        trees.update(repr(parse_verilog(text)).encode())
    return tokens.hexdigest()[:16], trees.hexdigest()[:16]


def compute_digests() -> dict:
    return {spec.name: digests_of(emitted_texts(spec)) for spec in ALL_KERNELS}


def pairs(source: str) -> list[tuple[str, str]]:
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


def texts_of(source: str) -> list[str]:
    return [t.text for t in tokenize(source)[:-1]]


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
def test_pinned_token_and_ast_digests(spec):
    assert digests_of(emitted_texts(spec)) == PINNED[spec.name]


class TestTokens:
    def test_empty_source_is_one_eof(self):
        (eof,) = tokenize("")
        assert (eof.kind, eof.text, eof.line) == ("eof", "", 1)

    def test_kinds(self):
        assert pairs('module m_1 ( 12 , "hi there" ) ;') == [
            ("id", "module"), ("id", "m_1"), ("punct", "("), ("num", "12"),
            ("punct", ","), ("string", '"hi there"'), ("punct", ")"),
            ("punct", ";"),
        ]

    def test_system_names_are_identifiers(self):
        assert pairs("$signed($display)") == [
            ("id", "$signed"), ("punct", "("), ("id", "$display"),
            ("punct", ")"),
        ]

    def test_sized_literals(self):
        toks = tokenize("64'hdead_beef 4'b1010 'd5 8'o17 3'D9 12 8'HfF")[:-1]
        assert [(t.text, t.value, t.width) for t in toks] == [
            ("64'hdead_beef", 0xDEADBEEF, 64),
            ("4'b1010", 10, 4),
            ("'d5", 5, 32),          # unsized with a base: 32 bits
            ("8'o17", 0o17, 8),
            ("3'D9", 9 & 0b111, 3),  # masked to the declared width
            ("12", 12, None),
            ("8'HfF", 255, 8),
        ]
        assert all(t.kind == "num" for t in toks)

    def test_base_digits_stop_at_the_first_foreign_digit(self):
        assert texts_of("4'b1012 8'o779 8'd12ab") == [
            "4'b101", "2", "8'o77", "9", "8'd12", "ab",
        ]

    def test_lines(self):
        toks = tokenize("a\n\n  b /* x\ny\n*/ c // d\ne\r\n`timescale 1ns\nf")
        assert [(t.text, t.line) for t in toks] == [
            ("a", 1), ("b", 3), ("c", 5), ("e", 6), ("f", 8), ("", 8),
        ]

    def test_eof_line_counts_trailing_newlines(self):
        assert tokenize("a\n\n")[-1].line == 3


class TestMaximalMunch:
    def test_shifts_and_compares(self):
        assert texts_of("a>>>b>>c>d>=e") == [
            "a", ">>>", "b", ">>", "c", ">", "d", ">=", "e",
        ]
        assert texts_of(">>>>") == [">>>", ">"]
        assert texts_of("<<<=<") == ["<<", "<=", "<"]
        assert texts_of("a<=b") == ["a", "<=", "b"]

    def test_equalities_and_logic(self):
        assert texts_of("== = != ! && & || | ===") == [
            "==", "=", "!=", "!", "&&", "&", "||", "|", "==", "=",
        ]

    def test_indexed_part_select_operator(self):
        assert texts_of("x[i+:4] + : ") == ["x", "[", "i", "+:", "4", "]", "+", ":"]

    def test_slash_beside_comments(self):
        assert texts_of("a / b /* c */ / d // e / f\n/ g") == [
            "a", "/", "b", "/", "d", "/", "g",
        ]
        assert texts_of("a /*/ b */ c") == ["a", "c"]  # /*/ does not close

    def test_directive_lines_are_skipped(self):
        assert texts_of("`timescale 1ns / 1ps\nmodule `x y\nz") == ["module", "z"]

    def test_le_is_one_token_in_both_roles(self):
        (mod,) = parse_verilog("""
            module m (input wire clk, input wire [7:0] a, output reg [7:0] r);
                always @(posedge clk) begin
                    if (a<=r) r<=a<=r;
                end
            endmodule""")
        (branch,) = mod.always[0].body
        assert branch.cond.op == "<="            # a comparison inside if (...)
        (assign,) = branch.then
        assert assign.target == "r"              # a statement's first <= assigns
        assert assign.rhs.op == "<="             # and the next one compares


class TestErrors:
    @pytest.mark.parametrize("source,message", [
        ("a\n\n/* b\nc", "line 3: unterminated block comment"),
        ("/* a\n*/\n/*/", "line 3: unterminated block comment"),
        ('x\n"abc', "line 2: unterminated string"),
        ("\n8'", "line 2: bad number base after '"),
        ("'", "line 1: bad number base after '"),
        ("a\n8'q1", "line 2: bad number base after '"),
        ("8 'd1\n8' d1", "line 2: bad number base after '"),
        ("\n\n4'b", "line 3: empty number literal"),
        ("4'b__", "line 1: empty number literal"),
        ("4'b2", "line 1: empty number literal"),
        ("a\n\\", "line 2: unexpected character '\\\\'"),
        ("a \x0c", "line 1: unexpected character '\\x0c'"),
        ("\né", "line 2: unexpected character 'é'"),
    ])
    def test_message_and_line(self, source, message):
        with pytest.raises(VsimParseError) as err:
            tokenize(source)
        assert str(err.value) == message

    def test_a_space_may_follow_the_size(self):
        # "8 'd1" is the number 8 and then the 32-bit literal 'd1.
        assert [(t.text, t.width) for t in tokenize("8 'd1")[:-1]] == [
            ("8", None), ("'d1", 32),
        ]


# --------------------------------------------------------------------------
# Round trip
# --------------------------------------------------------------------------

_IDS = ["a", "clk", "_t0", "$signed", "$display", "module", "x$y", "S_ENTRY_0"]
_NUMS = ["0", "12", "64'hdead_beef", "4'b1010", "'d5", "8'o17", "1'b0"]
_PUNCT = [
    ">>>", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "+:", "+", "-",
    "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "?", ":", "=", "(",
    ")", "[", "]", "{", "}", ",", ";", ".", "#", "@",
]
_STRINGS = ['"done %d"', '""']
_ALPHABET = (
    [("id", t) for t in _IDS] + [("num", t) for t in _NUMS]
    + [("punct", t) for t in _PUNCT] + [("string", t) for t in _STRINGS]
)
#: Layout that always separates two tokens, with the lines it adds.
_GAPS = [
    (" ", 0), ("\t ", 0), ("\n", 1), (" \r\n  ", 1), ("\n\n", 2),
    (" // c / * \" '\n", 1), (" /* c */ ", 0), (" /* c\n ' \" */", 1),
    ("\n`timescale 1ns / 1ps\n", 2),
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_ALPHABET), st.sampled_from(_GAPS))))
def test_round_trip_through_random_layout(items):
    source, line, expected = "", 1, []
    for (kind, text), (gap, newlines) in items:
        expected.append((kind, text, line))
        source += text + gap
        line += newlines
    tokens = tokenize(source)
    assert [(t.kind, t.text, t.line) for t in tokens[:-1]] == expected
    assert (tokens[-1].kind, tokens[-1].line) == ("eof", line)


# --------------------------------------------------------------------------
# Hostile text
# --------------------------------------------------------------------------

BOUND_S = 5.0  # a few hundredths of a second when nothing backtracks
BIG = 4 << 20  # service.app.MAX_BODY_BYTES


@pytest.mark.parametrize("build,outcome", [
    pytest.param(lambda: "'" * BIG, "bad number base after '", id="quotes"),
    pytest.param(lambda: '"' + "x" * BIG, "unterminated string", id="open-string"),
    pytest.param(lambda: "8'h" + "_" * BIG, "empty number literal", id="underscores"),
    pytest.param(lambda: "1" * BIG + "'", "bad number base after '",
                 id="digits-then-quote"),
    pytest.param(lambda: "/*" + "*" * BIG, "unterminated block comment",
                 id="open-comment"),
    pytest.param(lambda: "a" * BIG, 2, id="identifier"),
    pytest.param(lambda: " " * BIG, 1, id="blanks"),
    pytest.param(lambda: "/" * BIG, 1, id="slashes"),
    pytest.param(lambda: "8'h" + "f" * BIG, 2, id="hex-digits"),
])
def test_hostile_text_ends_inside_the_bound(build, outcome):
    """No alternative of the scanner backtracks super-linearly: 4 MiB of
    any one thing is a token list or a typed error in well under
    ``BOUND_S`` seconds."""
    source = build()
    start = time.perf_counter()
    try:
        result = len(tokenize(source))
    except VsimParseError as err:
        result = str(err).split(": ", 1)[1]
    assert time.perf_counter() - start < BOUND_S
    assert result == outcome
