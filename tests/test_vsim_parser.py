"""The Verilog parser's expression grammar and list productions, spelled out.

Precedence and associativity were only implied by simulation results;
here each is a tree.  ``_BINARY_LEVELS`` is the one declaration of
precedence, and ``test_adjacent_levels`` builds the expected tree for
every adjacent pair of its rows, so a re-ordered table fails loudly.
"""

import pytest

from repro.vsim import VsimParseError, lint_verilog, parse_verilog
from repro.vsim.ast_nodes import Binary, FuncCall, Num, Ref, Ternary, Unary
from repro.vsim.parser import _BINARY_LEVELS


def expr(text: str):
    """The tree of ``text`` as the right-hand side of a one-line assign."""
    (mod,) = parse_verilog(f"module m (output wire y); assign y = {text}; endmodule")
    return mod.assigns[0].rhs


def ref(name: str) -> Ref:
    return Ref(name, line=1)


def binary(op: str, left, right) -> Binary:
    return Binary(op, left, right, line=1)


a, b, c, d, e = (ref(name) for name in "abcde")


class TestPrecedence:
    def test_subtraction_associates_left(self):
        assert expr("a - b - c") == binary("-", binary("-", a, b), c)

    def test_multiplication_binds_tighter_than_addition(self):
        assert expr("a + b * c") == binary("+", a, binary("*", b, c))
        assert expr("a * b + c") == binary("+", binary("*", a, b), c)

    def test_addition_binds_tighter_than_shift(self):
        assert expr("a << b + c") == binary("<<", a, binary("+", b, c))

    def test_equality_binds_tighter_than_bitwise_and(self):
        assert expr("a == b & c") == binary("&", binary("==", a, b), c)

    def test_or_xor_and_chain(self):
        assert expr("a | b ^ c & d") == binary(
            "|", a, binary("^", b, binary("&", c, d))
        )

    def test_unary_binds_tightest(self):
        assert expr("!a && -b") == binary(
            "&&", Unary("!", a, line=1), Unary("-", b, line=1)
        )
        assert expr("~a[3] * b") == binary(
            "*", Unary("~", expr("a[3]"), line=1), b
        )

    def test_ternary_associates_right(self):
        assert expr("a ? b : c ? d : e") == Ternary(
            a, b, Ternary(c, d, e, line=1), line=1
        )
        assert expr("a ? b ? c : d : e") == Ternary(
            a, Ternary(b, c, d, line=1), e, line=1
        )
        assert expr("a || b ? c : d") == Ternary(binary("||", a, b), c, d, line=1)

    def test_le_in_an_expression_is_a_left_associative_comparison(self):
        assert expr("a < b <= c") == binary("<=", binary("<", a, b), c)

    def test_literal_operands_keep_their_width(self):
        assert expr("8'd3 + 1") == binary(
            "+", Num(3, 8, line=1), Num(1, None, line=1)
        )

    def test_parentheses_override(self):
        assert expr("(a + b) * c") == binary("*", binary("+", a, b), c)
        assert expr("a - (b - c)") == binary("-", a, binary("-", b, c))

    def test_a_tight_run_between_two_loose_operators(self):
        assert expr("a || b * c + d && e") == binary(
            "||", a, binary("&&", binary("+", binary("*", b, c), d), e)
        )

    def test_a_binary_node_takes_its_left_operands_line(self):
        (mod,) = parse_verilog(
            "module m (output wire y);\nassign y = a\n+ b\n* c;\nendmodule"
        )
        rhs = mod.assigns[0].rhs
        assert (rhs.line, rhs.right.line, rhs.right.right.line) == (2, 3, 4)

    @pytest.mark.parametrize("level", range(len(_BINARY_LEVELS) - 1))
    def test_adjacent_levels(self, level):
        """Every operator of row ``level + 1`` binds tighter than every
        operator of row ``level``, on either side, and two operators of
        one row fold to the left."""
        for loose in _BINARY_LEVELS[level]:
            for tight in _BINARY_LEVELS[level + 1]:
                assert expr(f"a {loose} b {tight} c") == binary(
                    loose, a, binary(tight, b, c)
                )
                assert expr(f"a {tight} b {loose} c") == binary(
                    loose, binary(tight, a, b), c
                )
        for row in (_BINARY_LEVELS[level], _BINARY_LEVELS[level + 1]):
            for first in row:
                for second in row:
                    assert expr(f"a {first} b {second} c") == binary(
                        second, binary(first, a, b), c
                    )

    def test_the_table_is_the_ieee_1364_order(self):
        assert _BINARY_LEVELS == [
            ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
            ("<", "<=", ">", ">="), ("<<", ">>", ">>>"), ("+", "-"),
            ("*", "/", "%"),
        ]


# --------------------------------------------------------------------------
# Comma lists: a separator between items, none before the closer
# --------------------------------------------------------------------------

_HEADER = "module m #(parameter W = 8, parameter D = 2) (input wire a, output wire y);"
_CHILD = (
    "module c #(parameter W = 1, parameter D = 1) (input wire a, output wire y);"
    " assign y = a; endmodule\n"
)
_INSTANCE = "c #(.W(8), .D(2)) u (.a(a), .y(y));"


def module(header: str = _HEADER, body: str = "assign y = a;") -> str:
    return f"{header} {body} endmodule"


class TestCommaLists:
    def test_the_well_formed_lists_parse(self):
        (mod,) = parse_verilog(module())
        assert [p.name for p in mod.params] == ["W", "D"]
        assert [p.name for p in mod.ports] == ["a", "y"]
        child, top = parse_verilog(_CHILD + module(body=_INSTANCE))
        (inst,) = top.instances
        assert [name for name, _ in inst.param_overrides] == ["W", "D"]
        assert [conn.port for conn in inst.connections] == ["a", "y"]
        assert expr("fp_add_32(a, b)") == FuncCall("fp_add_32", [a, b], line=1)

    def test_empty_lists_parse(self):
        (mod,) = parse_verilog("module m #() (); endmodule")
        assert mod.params == [] and mod.ports == []
        assert expr("f()") == FuncCall("f", [], line=1)
        (_, top) = parse_verilog(_CHILD + module(body="c #() u ();"))
        assert top.instances[0].connections == []

    def test_a_call_with_a_missing_and_a_trailing_comma_no_longer_lints_clean(self):
        source = (
            "module m (input wire [31:0] a, output wire [31:0] y);"
            " assign y = fp_add_32(a a,); endmodule"
        )
        with pytest.raises(VsimParseError, match=r"line 1: expected ',', got 'a'"):
            lint_verilog(source)

    @pytest.mark.parametrize("source,message", [
        # a missing separator
        (module(_HEADER.replace("8, parameter", "8 parameter")),
         "expected ',', got 'parameter'"),
        (module(_HEADER.replace("a, output", "a output")),
         "expected ',', got 'output'"),
        (module(body="assign y = f(a b);"), "expected ',', got 'b'"),
        (_CHILD + module(body=_INSTANCE.replace("(8), .D", "(8) .D")),
         "expected ',', got '.'"),
        (_CHILD + module(body=_INSTANCE.replace("(a), .y", "(a) .y")),
         "expected ',', got '.'"),
        # a separator before the closer
        (module(_HEADER.replace("D = 2)", "D = 2,)")),
         "expected 'parameter', got ')'"),
        (module(_HEADER.replace("wire y)", "wire y,)")),
         "expected port direction, got ')'"),
        (module(body="assign y = f(a, b,);"),
         "unexpected token ')' in expression"),
        (_CHILD + module(body=_INSTANCE.replace(".D(2))", ".D(2),)")),
         "expected '.', got ')'"),
        (_CHILD + module(body=_INSTANCE.replace(".y(y))", ".y(y),)")),
         "expected '.', got ')'"),
        # a separator and nothing else
        (module(body="assign y = f(,);"), "unexpected token ',' in expression"),
        (module("module m (,);"), "expected port direction, got ','"),
    ], ids=[
        "header-params-missing", "ports-missing", "call-args-missing",
        "overrides-missing", "connections-missing", "header-params-trailing",
        "ports-trailing", "call-args-trailing", "overrides-trailing",
        "connections-trailing", "call-args-only-comma", "ports-only-comma",
    ])
    def test_rejected_with_the_offending_line(self, source, message):
        source = "\n\n" + source  # everything above sits on line 3 or 4
        line = 4 if source.startswith("\n\n" + _CHILD) else 3
        with pytest.raises(VsimParseError) as err:
            parse_verilog(source)
        assert str(err.value) == f"line {line}: {message}"
