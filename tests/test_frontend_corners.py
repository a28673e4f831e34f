"""Frontend corner cases: C constructs the kernels rely on, plus edges."""

import pytest

from repro.errors import CgpaError, NestingError, ParseError, SemanticError
from repro.frontend import compile_c
from repro.frontend.parser import parse
from repro.interp import Interpreter
from repro.ir import verify_module
from repro.transforms import optimize_module


def run(source, fn="main", args=(), optimize=False):
    module = compile_c(source)
    if optimize:
        optimize_module(module)
    verify_module(module)
    return Interpreter(module).call(fn, list(args))


class TestOperators:
    def test_comma_in_for_step(self):
        src = """
        int main(int n) {
            int s = 0;
            int j = 100;
            for (int i = 0; i < n; i++, j--) s += j;
            return s;
        }
        """
        assert run(src, args=[5]) == 100 + 99 + 98 + 97 + 96

    def test_chained_assignments(self):
        assert run("int main(void) { int a; int b; a = b = 7; return a + b; }") == 14

    def test_nested_ternary(self):
        src = "int main(int x) { return x > 10 ? 2 : x > 5 ? 1 : 0; }"
        assert run(src, args=[7]) == 1
        assert run(src, args=[3]) == 0

    def test_unary_minus_on_double_literal(self):
        assert run("double main(void) { return -1.0e30; }") == -1.0e30

    def test_hex_literals(self):
        assert run("int main(void) { return 0x2545f491 & 0xff; }") == 0x91

    def test_compound_assign_all_ops(self):
        src = """
        int main(int a) {
            a += 3; a -= 1; a *= 2; a /= 3; a %= 7;
            a <<= 2; a >>= 1; a &= 0xF; a |= 0x10; a ^= 0x3;
            return a;
        }
        """
        a = 5
        a += 3; a -= 1; a *= 2; a //= 3; a %= 7
        a <<= 2; a >>= 1; a &= 0xF; a |= 0x10; a ^= 0x3
        assert run(src, args=[5]) == a

    def test_pre_and_post_increment_values(self):
        src = "int main(void) { int i = 5; int a = i++; int b = ++i; return a * 100 + b; }"
        assert run(src) == 5 * 100 + 7

    def test_pointer_increment_in_expression(self):
        src = """
        void* malloc(int n);
        int main(void) {
            int* p = (int*)malloc(12);
            p[0] = 1; p[1] = 2; p[2] = 3;
            int s = *p++;
            s += *p++;
            s += *p;
            return s;
        }
        """
        assert run(src) == 6

    def test_logical_not_of_pointer(self):
        src = """
        typedef struct n { struct n* next; } n_t;
        int main(n_t* p) { if (!p) return 1; return 0; }
        """
        assert run(src, args=[0]) == 1

    def test_negative_modulo_matches_c(self):
        assert run("int main(void) { return -7 % 3; }") == -1


class TestControlFlowCorners:
    def test_empty_for_body(self):
        assert run("int main(int n) { int i; for (i = 0; i < n; i++) ; return i; }",
                   args=[9]) == 9

    def test_while_with_continue(self):
        src = """
        int main(int n) {
            int i = 0; int s = 0;
            while (i < n) {
                i++;
                if (i % 2) continue;
                s += i;
            }
            return s;
        }
        """
        assert run(src, args=[10]) == 2 + 4 + 6 + 8 + 10

    def test_nested_break_only_exits_inner(self):
        src = """
        int main(int n) {
            int c = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < n; j++) {
                    if (j == 2) break;
                    c++;
                }
            }
            return c;
        }
        """
        assert run(src, args=[5]) == 10

    def test_return_inside_loop(self):
        src = """
        int main(int n) {
            for (int i = 0; i < n; i++)
                if (i * i > 50) return i;
            return -1;
        }
        """
        assert run(src, args=[100]) == 8

    def test_do_while_executes_at_least_once(self):
        src = "int main(void) { int c = 0; do { c++; } while (0); return c; }"
        assert run(src) == 1

    def test_deeply_nested_conditionals_optimized(self):
        src = """
        int main(int x) {
            int r = 0;
            if (x > 0) { if (x > 10) { if (x > 100) r = 3; else r = 2; } else r = 1; }
            return r;
        }
        """
        for x, expected in ((500, 3), (50, 2), (5, 1), (-1, 0)):
            assert run(src, args=[x], optimize=True) == expected


class TestTypesCorners:
    def test_char_arithmetic_promotes(self):
        src = "int main(void) { char c = 100; char d = 100; return c + d; }"
        assert run(src) == 200  # promoted to int before the add

    def test_char_truncates_on_store(self):
        src = "int main(void) { char c = 300; return c; }"
        assert run(src) == 300 - 256

    def test_unsigned_keyword_accepted(self):
        assert run("int main(void) { unsigned x = 5; return (int)x; }") == 5

    def test_float_to_int_conversion_truncates(self):
        assert run("int main(void) { double d = 3.99; return (int)d; }") == 3
        assert run("int main(void) { double d = -3.99; return (int)d; }") == -3

    def test_mixed_float_double(self):
        src = "double main(void) { float f = 0.5f; double d = 0.25; return f + d; }"
        assert run(src) == 0.75

    def test_sizeof_pointer_types(self):
        src = """
        typedef struct big { double a[10]; } big_t;
        int main(void) { return sizeof(big_t*) + sizeof(big_t); }
        """
        assert run(src) == 4 + 80

    def test_void_pointer_roundtrip(self):
        src = """
        void* malloc(int n);
        int main(void) {
            void* raw = malloc(8);
            int* typed = (int*)raw;
            *typed = 11;
            return *(int*)raw;
        }
        """
        assert run(src) == 11


class TestDiagnostics:
    def test_void_variable_rejected(self):
        with pytest.raises(SemanticError):
            compile_c("int main(void) { void v; return 0; }")

    def test_arrow_on_value_rejected(self):
        with pytest.raises(SemanticError):
            compile_c(
                "typedef struct s { int x; } s_t;"
                "int main(s_t v) { return v->x; }"
            )

    def test_conflicting_prototypes_rejected(self):
        with pytest.raises(SemanticError):
            compile_c("int f(int a); double f(int a) { return 0.0; }")

    def test_opaque_struct_member_rejected(self):
        with pytest.raises(SemanticError):
            compile_c(
                "int main(struct nowhere* p) { return p->x; }"
            )

    def test_continue_outside_loop(self):
        with pytest.raises(SemanticError):
            compile_c("int main(void) { continue; return 0; }")

    def test_errors_carry_line_numbers(self):
        try:
            compile_c("int main(void) {\n  return nope;\n}")
        except SemanticError as e:
            assert "line 2" in str(e)
        else:
            pytest.fail("expected SemanticError")


#: Sources that nest deeper than the recursive frontend can walk.
TOO_DEEP = {
    "parens": "int main(int x) { return " + "(" * 2000 + "x" + ")" * 2000 + "; }",
    "braces": "int main(int x) { " + "{" * 3000 + "}" * 3000 + " return x; }",
}


class TestNesting:
    @pytest.mark.parametrize("shape", sorted(TOO_DEEP))
    def test_too_deep_is_a_typed_one_line_error(self, shape):
        with pytest.raises(NestingError) as info:
            compile_c(TOO_DEEP[shape])
        assert isinstance(info.value, CgpaError)
        assert "nesting too deep" in str(info.value)
        assert "\n" not in str(info.value)

    def test_ordinary_nesting_compiles(self):
        src = "int main(int x) { {{{ return " + "(" * 30 + "x" + ")" * 30 + "; }}} }"
        assert run(src, args=[9]) == 9


#: A decimal literal longer than ``int()`` converts (its limit is 4300 digits).
OVERLONG_LITERAL = "int f(void) { return " + "1" * 5000 + "; }"


class TestIntegerLiterals:
    def test_overlong_literal_is_a_parse_error_with_its_position(self):
        for front in (parse, compile_c):
            with pytest.raises(ParseError) as info:
                front(OVERLONG_LITERAL)
            assert isinstance(info.value, CgpaError)
            assert (info.value.line, info.value.column) == (1, 22)
            assert "5000 characters" in str(info.value)
            assert len(str(info.value)) < 100  # names the literal, does not quote it

    @pytest.mark.parametrize("literal", ["08", "0x", "0777", "09u"])
    def test_literals_int_refuses_are_parse_errors(self, literal):
        with pytest.raises(ParseError, match="invalid integer constant"):
            compile_c(f"int f(void) {{ return {literal}; }}")
        with pytest.raises(ParseError, match="invalid integer constant"):
            compile_c(f"int g[{literal}];")

    def test_suffixes_and_hex_still_parse(self):
        assert run("int main(void) { return 0x1F + 12u + 3L; }") == 46
