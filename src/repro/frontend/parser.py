"""Recursive-descent parser for the C subset.

Produces the AST of :mod:`repro.frontend.ast_nodes`.  The parser keeps a
set of known type names (builtins, ``struct`` tags seen so far, typedef
names) so it can disambiguate casts and declarations from expressions —
the classic "lexer hack" folded into the parser state.
"""

from __future__ import annotations

from ..errors import ParseError
from . import ast_nodes as ast
from .lexer import Token, tokenize

BUILTIN_TYPE_NAMES = {"void", "int", "char", "float", "double", "unsigned", "long"}

#: Binary operator precedence, higher binds tighter (C levels).
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self.typedef_names: set[str] = set()
        self.struct_tags: set[str] = set()

    # -- token plumbing -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.current
        self.pos += 1
        return token

    def error(self, message: str) -> ParseError:
        tok = self.current
        return ParseError(f"{message} (got {tok.kind} {tok.text!r})", tok.line, tok.column)

    def expect(self, text: str) -> Token:
        if self.current.text != text:
            raise self.error(f"expected {text!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise self.error("expected identifier")
        return self.advance()

    def accept(self, text: str) -> bool:
        if self.current.text == text:
            self.advance()
            return True
        return False

    # -- type recognition --------------------------------------------------------

    def at_type(self) -> bool:
        tok = self.current
        if tok.kind == "keyword" and tok.text in BUILTIN_TYPE_NAMES | {"struct", "const"}:
            return True
        return tok.kind == "ident" and tok.text in self.typedef_names

    def parse_type(self) -> ast.CTypeExpr:
        line = self.current.line
        self.accept("const")
        tok = self.current
        if tok.text == "struct":
            self.advance()
            tag = self.expect_ident().text
            base = f"struct:{tag}"
        elif tok.text == "unsigned" or tok.text == "long":
            # 'unsigned int', 'long' and friends all map to int on this
            # 32-bit target (long is 32-bit, as on the paper's MIPS).
            self.advance()
            self.accept("int")
            self.accept("long")
            base = "int"
        elif tok.kind == "keyword" and tok.text in BUILTIN_TYPE_NAMES:
            self.advance()
            base = tok.text
        elif tok.kind == "ident" and tok.text in self.typedef_names:
            self.advance()
            base = tok.text
        else:
            raise self.error("expected a type")
        self.accept("const")
        depth = 0
        while self.accept("*"):
            depth += 1
            self.accept("const")
        return ast.CTypeExpr(base=base, pointer_depth=depth, line=line)

    # -- top level ------------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(line=1)
        while self.current.kind != "eof":
            unit.decls.append(self.parse_top_level())
        return unit

    def parse_top_level(self) -> ast.Node:
        if self.current.text == "typedef":
            return self.parse_typedef()
        if self.current.text == "struct" and self.peek(2).text == "{":
            return self.parse_struct_definition()
        return self.parse_function_or_global()

    def parse_typedef(self) -> ast.StructDecl:
        line = self.expect("typedef").line
        self.expect("struct")
        tag = ""
        if self.current.kind == "ident":
            tag = self.advance().text
            self.struct_tags.add(tag)
        fields = self.parse_struct_body()
        name = self.expect_ident().text
        self.expect(";")
        self.typedef_names.add(name)
        if not tag:
            tag = name
            self.struct_tags.add(tag)
        return ast.StructDecl(tag=tag, fields=fields, typedef_name=name, line=line)

    def parse_struct_definition(self) -> ast.StructDecl:
        line = self.expect("struct").line
        tag = self.expect_ident().text
        self.struct_tags.add(tag)
        fields = self.parse_struct_body()
        self.expect(";")
        return ast.StructDecl(tag=tag, fields=fields, typedef_name=None, line=line)

    def parse_struct_body(self) -> list[ast.DeclStmt]:
        self.expect("{")
        fields: list[ast.DeclStmt] = []
        while not self.accept("}"):
            ftype = self.parse_type()
            fname = self.expect_ident().text
            length = None
            if self.accept("["):
                length = self.parse_int_constant()
                self.expect("]")
            self.expect(";")
            fields.append(
                ast.DeclStmt(type=ftype, name=fname, array_length=length, line=ftype.line)
            )
        return fields

    def parse_int_constant(self) -> int:
        if self.current.kind != "int":
            raise self.error("expected integer constant")
        return _parse_int(self.advance())

    def parse_function_or_global(self) -> ast.Node:
        decl_type = self.parse_type()
        name_tok = self.expect_ident()
        if self.current.text == "(":
            return self.parse_function_rest(decl_type, name_tok)
        return self.parse_global_rest(decl_type, name_tok)

    def parse_function_rest(
        self, return_type: ast.CTypeExpr, name_tok: Token
    ) -> ast.FunctionDecl:
        self.expect("(")
        params: list[ast.ParamDecl] = []
        if not self.accept(")"):
            if self.current.text == "void" and self.peek().text == ")":
                self.advance()
                self.expect(")")
            else:
                while True:
                    ptype = self.parse_type()
                    pname = self.expect_ident().text
                    params.append(ast.ParamDecl(type=ptype, name=pname, line=ptype.line))
                    if not self.accept(","):
                        break
                self.expect(")")
        if self.accept(";"):
            body = None
        else:
            body = self.parse_compound()
        return ast.FunctionDecl(
            return_type=return_type,
            name=name_tok.text,
            params=params,
            body=body,
            line=name_tok.line,
        )

    def parse_global_rest(
        self, decl_type: ast.CTypeExpr, name_tok: Token
    ) -> ast.GlobalDecl:
        length = None
        if self.accept("["):
            length = self.parse_int_constant()
            self.expect("]")
        init_values = None
        if self.accept("="):
            init_values = []
            if self.accept("{"):
                while not self.accept("}"):
                    init_values.append(self.parse_number_constant())
                    self.accept(",")
            else:
                init_values.append(self.parse_number_constant())
        self.expect(";")
        return ast.GlobalDecl(
            type=decl_type,
            name=name_tok.text,
            array_length=length,
            init_values=init_values,
            line=name_tok.line,
        )

    def parse_number_constant(self) -> float:
        negative = self.accept("-")
        tok = self.current
        if tok.kind == "int":
            value: float = _parse_int(self.advance())
        elif tok.kind == "float":
            value = float(self.advance().text.rstrip("f"))
        else:
            raise self.error("expected numeric constant")
        return -value if negative else value

    # -- statements --------------------------------------------------------------------

    def parse_compound(self) -> ast.CompoundStmt:
        line = self.expect("{").line
        body: list[ast.Node] = []
        while not self.accept("}"):
            body.append(self.parse_statement())
        return ast.CompoundStmt(body=body, line=line)

    def parse_statement(self) -> ast.Node:
        tok = self.current
        if tok.text == "{":
            return self.parse_compound()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "while":
            return self.parse_while()
        if tok.text == "do":
            return self.parse_do_while()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "return":
            self.advance()
            value = None if self.current.text == ";" else self.parse_expression()
            self.expect(";")
            return ast.ReturnStmt(value=value, line=tok.line)
        if tok.text == "break":
            self.advance()
            self.expect(";")
            return ast.BreakStmt(line=tok.line)
        if tok.text == "continue":
            self.advance()
            self.expect(";")
            return ast.ContinueStmt(line=tok.line)
        if self.at_type():
            return self.parse_declaration()
        if self.accept(";"):
            return ast.CompoundStmt(body=[], line=tok.line)
        expr = self.parse_expression()
        self.expect(";")
        return ast.ExprStmt(expr=expr, line=tok.line)

    def parse_declaration(self) -> ast.DeclStmt:
        decl_type = self.parse_type()
        name = self.expect_ident().text
        length = None
        if self.accept("["):
            length = self.parse_int_constant()
            self.expect("]")
        init = None
        if self.accept("="):
            init = self.parse_assignment()
        self.expect(";")
        return ast.DeclStmt(
            type=decl_type, name=name, array_length=length, init=init, line=decl_type.line
        )

    def parse_if(self) -> ast.IfStmt:
        line = self.expect("if").line
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then_body = self.parse_statement()
        else_body = self.parse_statement() if self.accept("else") else None
        return ast.IfStmt(cond=cond, then_body=then_body, else_body=else_body, line=line)

    def parse_while(self) -> ast.WhileStmt:
        line = self.expect("while").line
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        return ast.WhileStmt(cond=cond, body=self.parse_statement(), line=line)

    def parse_do_while(self) -> ast.DoWhileStmt:
        line = self.expect("do").line
        body = self.parse_statement()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        self.expect(";")
        return ast.DoWhileStmt(body=body, cond=cond, line=line)

    def parse_for(self) -> ast.ForStmt:
        line = self.expect("for").line
        self.expect("(")
        init: ast.Node | None = None
        if not self.accept(";"):
            if self.at_type():
                init = self.parse_declaration()  # consumes ';'
            else:
                init = ast.ExprStmt(expr=self.parse_expression(), line=line)
                self.expect(";")
        cond = None
        if not self.accept(";"):
            cond = self.parse_expression()
            self.expect(";")
        step = None
        if self.current.text != ")":
            step = self.parse_expression()
        self.expect(")")
        return ast.ForStmt(
            init=init, cond=cond, step=step, body=self.parse_statement(), line=line
        )

    # -- expressions --------------------------------------------------------------------

    def parse_expression(self) -> ast.Node:
        expr = self.parse_assignment()
        while self.accept(","):
            # Comma expression: evaluate both, keep the right value.
            rhs = self.parse_assignment()
            expr = ast.BinaryExpr(op=",", lhs=expr, rhs=rhs, line=rhs.line)
        return expr

    def parse_assignment(self) -> ast.Node:
        lhs = self.parse_conditional()
        if self.current.text in ASSIGN_OPS:
            op = self.advance().text
            rhs = self.parse_assignment()
            return ast.AssignExpr(op=op, lhs=lhs, rhs=rhs, line=lhs.line)
        return lhs

    def parse_conditional(self) -> ast.Node:
        cond = self.parse_binary(1)
        if self.accept("?"):
            if_true = self.parse_expression()
            self.expect(":")
            if_false = self.parse_conditional()
            return ast.ConditionalExpr(
                cond=cond, if_true=if_true, if_false=if_false, line=cond.line
            )
        return cond

    def parse_binary(self, min_prec: int) -> ast.Node:
        lhs = self.parse_unary()
        while True:
            op = self.current.text
            prec = BINARY_PRECEDENCE.get(op)
            if (
                prec is None
                or prec < min_prec
                or self.current.kind != "op"
                or op in ASSIGN_OPS
            ):
                return lhs
            self.advance()
            rhs = self.parse_binary(prec + 1)
            lhs = ast.BinaryExpr(op=op, lhs=lhs, rhs=rhs, line=lhs.line)

    def parse_unary(self) -> ast.Node:
        tok = self.current
        if tok.text in ("-", "!", "~", "*", "&"):
            self.advance()
            return ast.UnaryExpr(op=tok.text, operand=self.parse_unary(), line=tok.line)
        if tok.text in ("++", "--"):
            self.advance()
            return ast.UnaryExpr(op=tok.text, operand=self.parse_unary(), line=tok.line)
        if tok.text == "sizeof":
            self.advance()
            self.expect("(")
            target = self.parse_type()
            self.expect(")")
            return ast.SizeofExpr(target=target, line=tok.line)
        if tok.text == "(" and self._is_cast():
            self.advance()
            target = self.parse_type()
            self.expect(")")
            return ast.CastExpr(target=target, operand=self.parse_unary(), line=tok.line)
        return self.parse_postfix()

    def _is_cast(self) -> bool:
        """True when '(' starts a cast rather than a parenthesised expr."""
        assert self.current.text == "("
        nxt = self.peek()
        if nxt.kind == "keyword" and nxt.text in BUILTIN_TYPE_NAMES | {"struct", "const"}:
            return True
        return nxt.kind == "ident" and nxt.text in self.typedef_names

    def parse_postfix(self) -> ast.Node:
        expr = self.parse_primary()
        while True:
            tok = self.current
            if tok.text == "[":
                self.advance()
                index = self.parse_expression()
                self.expect("]")
                expr = ast.IndexExpr(base=expr, index=index, line=tok.line)
            elif tok.text == ".":
                self.advance()
                member = self.expect_ident().text
                expr = ast.MemberExpr(base=expr, member=member, arrow=False, line=tok.line)
            elif tok.text == "->":
                self.advance()
                member = self.expect_ident().text
                expr = ast.MemberExpr(base=expr, member=member, arrow=True, line=tok.line)
            elif tok.text in ("++", "--"):
                self.advance()
                expr = ast.PostfixIncDec(op=tok.text, operand=expr, line=tok.line)
            else:
                return expr

    def parse_primary(self) -> ast.Node:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return ast.IntLiteral(value=_parse_int(tok), line=tok.line)
        if tok.kind == "float":
            self.advance()
            return ast.FloatLiteral(
                value=float(tok.text.rstrip("f")),
                is_single=tok.text.endswith("f"),
                line=tok.line,
            )
        if tok.kind == "ident":
            if self.peek().text == "(":
                name = self.advance().text
                self.expect("(")
                args: list[ast.Node] = []
                if not self.accept(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept(","):
                            break
                    self.expect(")")
                return ast.CallExpr(name=name, args=args, line=tok.line)
            self.advance()
            if tok.text == "NULL":
                return ast.IntLiteral(value=0, line=tok.line)
            return ast.Identifier(name=tok.text, line=tok.line)
        if tok.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise self.error("expected an expression")


def _parse_int(tok: Token) -> int:
    try:
        return int(tok.text.rstrip("uUlL"), 0)
    except ValueError:  # more digits than int() converts, or "08", or a bare "0x"
        message = f"invalid integer constant {tok.text[:16]!r} ({len(tok.text)} characters)"
        raise ParseError(message, tok.line, tok.column) from None


def parse(source: str) -> ast.TranslationUnit:
    """Parse C source text into a translation unit AST."""
    return Parser(source).parse_translation_unit()
