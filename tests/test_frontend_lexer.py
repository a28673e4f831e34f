"""Unit tests for the C-subset lexer.

``PINNED`` holds digests of the nine kernel sources' token streams, taken
from the character-loop lexer the compiled scanner replaced.  They are
not regenerated from this checkout — a new value comes only from a
checkout whose lexer is known good: ``PYTHONPATH=<that checkout>/src
python -c "import tests.test_frontend_lexer as t; print(t.compute_digests())"``.
"""

import hashlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexerError
from repro.frontend import tokenize
from repro.kernels import ALL_KERNELS

#: kernel -> sha256 (first 16 hex digits) over (kind, text, line, column).
PINNED = {
    "K-means": "46994781aa44b536",
    "Hash-indexing": "752a91eb4b53b800",
    "ks": "7a54991f8f8d0569",
    "em3d": "c2af73eb82c857b0",
    "1D-Gaussblur": "3fe9f171347821ca",
    "bfs": "19a4b226105ffcee",
    "hash-join": "9d98881cd0d1e659",
    "spmv": "4821ee72fa18355e",
    "top-k": "2af531e0346148ae",
}


def digest_of(source: str) -> str:
    stream = hashlib.sha256()
    for t in tokenize(source):
        stream.update(repr((t.kind, t.text, t.line, t.column)).encode())
    return stream.hexdigest()[:16]


def compute_digests() -> dict:
    return {spec.name: digest_of(spec.source) for spec in ALL_KERNELS}


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
def test_pinned_token_digests(spec):
    assert digest_of(spec.source) == PINNED[spec.name]


class TestBasics:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        assert kinds("int foo _bar2") == [
            ("keyword", "int"), ("ident", "foo"), ("ident", "_bar2"),
        ]

    def test_numbers(self):
        assert kinds("42 0x1F 3.25 1e3 2.5e-2 1.0f") == [
            ("int", "42"), ("int", "0x1F"), ("float", "3.25"),
            ("float", "1e3"), ("float", "2.5e-2"), ("float", "1.0f"),
        ]

    def test_unsigned_suffix_stripped(self):
        assert kinds("42u 7UL")[0] == ("int", "42")

    def test_char_literals_become_ints(self):
        assert kinds("'a' '\\n'") == [("int", str(ord("a"))), ("int", "10")]

    def test_operators_maximal_munch(self):
        assert [t for _, t in kinds("a->b ++ -- <<= >= == && ||")] == [
            "a", "->", "b", "++", "--", "<<=", ">=", "==", "&&", "||",
        ]

    def test_arrow_not_split(self):
        toks = kinds("p->next")
        assert ("op", "->") in toks

    def test_comments_skipped(self):
        src = "int a; // line comment\n/* block\ncomment */ int b;"
        assert [t for _, t in kinds(src)] == ["int", "a", ";", "int", "b", ";"]

    def test_line_tracking(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3 and tokens[2].column == 3

    def test_line_tracking_through_block_comment(self):
        tokens = tokenize("/* one\ntwo */ x")
        assert tokens[0].line == 2


class TestErrors:
    def test_unterminated_block_comment(self):
        with pytest.raises(LexerError):
            tokenize("/* never ends")

    def test_bad_character(self):
        with pytest.raises(LexerError):
            tokenize("int $x;")

    def test_malformed_exponent(self):
        with pytest.raises(LexerError):
            tokenize("1e+")

    def test_error_carries_position(self):
        try:
            tokenize("int a;\n  $")
        except LexerError as e:
            assert e.line == 2 and e.column == 3
        else:
            pytest.fail("expected LexerError")

    @pytest.mark.parametrize("source,message", [
        ("x = 1e;", "1:5: malformed float exponent"),
        ("\n  2.5e+", "2:3: malformed float exponent"),
        ("1else", "1:1: malformed float exponent"),
        ("a\n 'b' '\\q'", "2:6: unsupported escape '\\q'"),
        ("/* a\n*/ x /* b\nc", "2:6: unterminated block comment"),
        ("/*/", "1:1: unterminated block comment"),
        ("int a;\n\t@", "2:2: unexpected character '@'"),
        ("a \x0c", "1:3: unexpected character '\\x0c'"),
        ('s = "x";', "1:5: unexpected character '\"'"),
        ("c = 'ab';", "1:5: malformed character literal"),
        ("c = '", "1:5: malformed character literal"),
    ])
    def test_message_line_and_column(self, source, message):
        with pytest.raises(LexerError) as err:
            tokenize(source)
        assert str(err.value) == message

    def test_an_escape_at_the_end_of_the_source_is_typed(self):
        # The character loop read one past the end here (IndexError).
        with pytest.raises(LexerError, match="1:5: malformed character literal"):
            tokenize("c = '\\n")
        assert spelled("'\\'") == ["92"]


def spelled(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestNumbersAndCharacters:
    def test_float_forms(self):
        assert kinds("1. .5 1.e2 3e+4 5E-6 7.0F 8.5L 9e1f") == [
            ("float", "1."), ("float", ".5"), ("float", "1.e2"),
            ("float", "3e+4"), ("float", "5E-6"), ("float", "7.0f"),
            ("float", "8.5"), ("float", "9e1f"),
        ]

    def test_f_is_a_suffix_of_floats_only(self):
        assert kinds("1f 1.5fu 0x1f") == [
            ("int", "1"), ("ident", "f"), ("float", "1.5f"), ("ident", "u"),
            ("int", "0x1f"),
        ]

    def test_integer_suffixes_are_dropped(self):
        assert spelled("42u 7UL 0x1FuL 0X 0x") == ["42", "7", "0x1F", "0X", "0x"]

    def test_a_second_point_starts_a_second_number(self):
        assert spelled("1.2.3 1..2") == ["1.2", ".3", "1.", ".2"]

    def test_member_access_is_not_a_number(self):
        assert spelled("a.b p->q a.5") == ["a", ".", "b", "p", "->", "q", "a", ".5"]

    def test_character_literals(self):
        assert spelled(r"'a' '\n' '\t' '\0' '\\' '\'' ''' '\' ' '") == [
            "97", "10", "9", "0", "92", "39", "39", "92", "32",
        ]


class TestMaximalMunch:
    def test_three_character_operators(self):
        assert spelled("a<<=b>>=c<<d>>e<=f") == [
            "a", "<<=", "b", ">>=", "c", "<<", "d", ">>", "e", "<=", "f",
        ]

    def test_compound_assignments(self):
        assert spelled("+= -= *= /= %= &= |= ^= == != >= =") == [
            "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "==", "!=", ">=", "=",
        ]

    def test_runs_split_longest_first(self):
        assert spelled("+++ --- ->> &&& |||| <<<") == [
            "++", "+", "--", "-", "->", ">", "&&", "&", "||", "||", "<<", "<",
        ]

    def test_slash_beside_comments(self):
        assert spelled("a / b /* c */ / d // e / f\n/= g") == [
            "a", "/", "b", "/", "d", "/=", "g",
        ]
        assert spelled("a /*/ b */ c") == ["a", "c"]  # /*/ does not close

    def test_keywords_are_whole_words(self):
        assert kinds("int integer for fortune _if") == [
            ("keyword", "int"), ("ident", "integer"), ("keyword", "for"),
            ("ident", "fortune"), ("ident", "_if"),
        ]


class TestPositions:
    def test_columns_count_tabs_and_returns_as_one(self):
        tokens = tokenize("\ta\r b\n\t\tc")
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("a", 1, 2), ("b", 1, 5), ("c", 2, 3), ("", 2, 4),
        ]

    def test_columns_after_a_block_comment(self):
        tokens = tokenize("a /* x */ b /* y\nzz */ c")
        assert [(t.text, t.line, t.column) for t in tokens[:-1]] == [
            ("a", 1, 1), ("b", 1, 11), ("c", 2, 7),
        ]

    def test_eof_sits_one_past_the_last_character(self):
        eof = tokenize("ab\n  ")[-1]
        assert (eof.line, eof.column) == (2, 3)
        assert tokenize("ab")[-1].column == 3

    def test_a_closing_line_comment_does_not_move_eof(self):
        # Kept from the character loop: the comment's text is not counted.
        assert tokenize("ab // c")[-1].column == 4
        assert tokenize("ab // c\n")[-1].column == 1


# --------------------------------------------------------------------------
# Round trip
# --------------------------------------------------------------------------

#: (spelling in the source, token kind, token text)
_ALPHABET = [
    ("x", "ident", "x"), ("_t0", "ident", "_t0"), ("node", "ident", "node"),
    ("int", "keyword", "int"), ("while", "keyword", "while"),
    ("sizeof", "keyword", "sizeof"),
    ("0", "int", "0"), ("42u", "int", "42"), ("0x1F", "int", "0x1F"),
    ("7UL", "int", "7"), ("'a'", "int", "97"), ("'\\n'", "int", "10"),
    ("3.25", "float", "3.25"), ("1e3", "float", "1e3"), (".5", "float", ".5"),
    ("2.5e-2f", "float", "2.5e-2f"), ("1.0F", "float", "1.0f"),
] + [(op, "op", op) for op in [
    "<<=", ">>=", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "+", "-", "*", "/",
    "%", "<", ">", "=", "!", "&", "|", "^", "~", "?", ":", ".", ",", ";", "(",
    ")", "{", "}", "[", "]",
]]
#: Layout that always separates two tokens.
_GAPS = [
    " ", "\t ", "\n", " \r\n  ", "\n\n", " // c / * ' \"\n", " /* c */ ",
    " /* c\n ' */",
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_ALPHABET), st.sampled_from(_GAPS))))
def test_round_trip_through_random_layout(items):
    source, expected = "", []
    for (spelling, kind, text), gap in items:
        line = source.count("\n") + 1
        column = len(source) - source.rfind("\n")
        expected.append((kind, text, line, column))
        source += spelling + gap
    tokens = tokenize(source)
    assert [(t.kind, t.text, t.line, t.column) for t in tokens[:-1]] == expected
    eof = tokens[-1]
    assert (eof.kind, eof.line) == ("eof", source.count("\n") + 1)
    assert eof.column == len(source) - source.rfind("\n")


# --------------------------------------------------------------------------
# Hostile text
# --------------------------------------------------------------------------

BOUND_S = 5.0  # a few hundredths of a second when nothing backtracks
BIG = 4 << 20  # service.app.MAX_BODY_BYTES: a client's ``source`` comes here
#: A run that is a token a character is also ~250 bytes of Token a
#: character, so those are cut to 256 KiB here: the full 4 MiB is the
#: same loop sixteen times over and ~1 GiB of tokens (a token *budget*
#: is ROADMAP item 3's).
DENSE = BIG // 16


@pytest.mark.parametrize("build,outcome", [
    pytest.param(lambda: "a" * BIG, 2, id="identifier"),
    # 1e1, then one identifier
    pytest.param(lambda: "1e" * (BIG // 2), 3, id="1e-run"),
    pytest.param(lambda: "1" * BIG + "e", "malformed float exponent",
                 id="digits-then-e"),
    pytest.param(lambda: "1" * BIG + ".", 2, id="digits-then-point"),
    pytest.param(lambda: "0x" + "f" * BIG, 2, id="hex-digits"),
    # 0x0, then one identifier
    pytest.param(lambda: "0x" * (DENSE // 2), 3, id="0x-run"),
    # ''' is 39; an odd quote is left over
    pytest.param(lambda: "'" * (DENSE - 1), (DENSE - 1) // 3 + 1, id="quotes"),
    pytest.param(lambda: "'" * DENSE, "malformed character literal",
                 id="quotes-odd"),
    pytest.param(lambda: "/*" + "*" * BIG, "unterminated block comment",
                 id="open-comment-stars"),
    pytest.param(lambda: "/*" + "/" * BIG, "unterminated block comment",
                 id="open-comment-slashes"),
    pytest.param(lambda: "/" * BIG, 1, id="slashes"),
    pytest.param(lambda: "/ " * (DENSE // 2), DENSE // 2 + 1, id="spaced-slashes"),
    pytest.param(lambda: "." * DENSE, DENSE + 1, id="points"),
    pytest.param(lambda: "\0" * BIG, "unexpected character '\\x00'", id="nul-bytes"),
    pytest.param(lambda: " " * BIG, 1, id="blanks"),
    pytest.param(lambda: "\n" * DENSE, 1, id="newlines"),
])
def test_hostile_text_ends_inside_the_bound(build, outcome):
    """No alternative of the scanner backtracks super-linearly: 4 MiB of
    any one thing is a token list or a typed ``LexerError`` in well under
    ``BOUND_S`` seconds."""
    source = build()
    start = time.perf_counter()
    try:
        result = len(tokenize(source))
    except LexerError as err:
        result = str(err).split(": ", 1)[1]
    assert time.perf_counter() - start < BOUND_S
    assert result == outcome
