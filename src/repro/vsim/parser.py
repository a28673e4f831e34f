"""Recursive-descent parser for the emitter's Verilog subset.

Grammar (exactly what :mod:`repro.rtl.verilog` produces):

* ANSI-style module headers with ``input``/``output`` ``wire``/``reg``
  ports, optional constant ``[msb:lsb]`` ranges.
* ``parameter`` / ``localparam`` declarations with constant values.
* internal ``reg`` / ``wire`` declarations.
* ``assign name = expr;`` continuous assignments.
* ``always @(posedge clk)`` blocks containing ``begin/end``, ``if/else``,
  ``case/endcase`` and nonblocking assignments ``name <= expr;``.
* module instances with optional ``#(.PARAM(expr))`` overrides and named
  port connections (``.port(expr)`` or unconnected ``.port()``).
* expressions: literals, identifiers, unary/binary/ternary operators,
  constant part-selects, concatenation, replication, ``$signed`` and
  ``fp_*`` operator-core calls.  Binary operators are folded by
  precedence climbing over the one ``_BINARY_LEVELS`` table.
* every comma-separated list (header parameters, ports, parameter
  overrides, connections, call arguments) has a comma between items and
  none before its closer.

Anything else raises :class:`VsimParseError` — the point of the subset
simulator is to *reject* Verilog we never emit rather than guess at its
semantics.
"""

from __future__ import annotations

from .ast_nodes import (
    AlwaysBlock,
    Binary,
    Case,
    CaseItem,
    Concat,
    Connection,
    ContAssign,
    Expr,
    FuncCall,
    If,
    Instance,
    ModuleAst,
    NetDecl,
    NonBlocking,
    Num,
    ParamDecl,
    Ref,
    Repeat,
    Select,
    SignedCast,
    Stmt,
    Ternary,
    Unary,
)
from .errors import VsimParseError
from .lexer import Token, tokenize

#: Binary operators by precedence level, weakest first: the one
#: declaration of precedence.  ``?:`` and the unary operators are handled
#: structurally.
_BINARY_LEVELS: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_LEVEL_OF = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}
_UNARY_OPS = ("!", "~", "-", "+")


def parse_verilog(source: str) -> list[ModuleAst]:
    """Parse Verilog source into a list of module ASTs."""
    return _Parser(tokenize(source)).parse_sources()


class _Parser:
    """Reads ``_tokens[_pos]`` directly.  ``_pos`` only moves past a token
    whose text or kind has just been matched, and nothing matches the
    closing eof token, so it never runs off the list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------ plumbing

    def _check(self, text: str) -> bool:
        return self._tokens[self._pos].text == text

    def _accept(self, text: str) -> bool:
        if self._tokens[self._pos].text == text:
            self._pos += 1
            return True
        return False

    def _expect(self, text: str) -> Token:
        tok = self._tokens[self._pos]
        if tok.text != text:
            raise VsimParseError(
                f"line {tok.line}: expected {text!r}, got {tok.text!r}"
            )
        self._pos += 1
        return tok

    def _expect_id(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "id":
            raise VsimParseError(
                f"line {tok.line}: expected identifier, got {tok.text!r}"
            )
        self._pos += 1
        return tok

    def _comma_list(self, close: str, parse_item) -> list:
        """``item, item, ... close`` or just ``close``: a comma between
        items and none before ``close``, which is consumed."""
        items: list = []
        if self._accept(close):
            return items
        while True:
            items.append(parse_item())
            if self._accept(close):
                return items
            self._expect(",")

    # ------------------------------------------------------------- modules

    def parse_sources(self) -> list[ModuleAst]:
        modules = []
        while self._tokens[self._pos].kind != "eof":
            modules.append(self._parse_module())
        return modules

    def _parse_module(self) -> ModuleAst:
        start = self._expect("module")
        name = self._expect_id().text
        mod = ModuleAst(name=name, line=start.line)
        if self._accept("#"):  # module header parameter list
            self._expect("(")
            mod.params = self._comma_list(")", self._parse_header_param)
        self._expect("(")
        mod.ports = self._comma_list(")", self._parse_port_decl)
        self._expect(";")
        while not self._accept("endmodule"):
            self._parse_module_item(mod)
        return mod

    def _parse_header_param(self) -> ParamDecl:
        self._expect("parameter")
        name = self._expect_id().text
        self._expect("=")
        return ParamDecl(name, self._parse_expr(), local=False)

    def _parse_port_decl(self) -> NetDecl:
        tok = self._tokens[self._pos]
        direction = tok.text
        if direction not in ("input", "output"):
            raise VsimParseError(
                f"line {tok.line}: expected port direction, got {tok.text!r}"
            )
        self._pos += 1
        kind = "wire"
        if self._tokens[self._pos].text in ("wire", "reg"):
            kind = self._tokens[self._pos].text
            self._pos += 1
        msb, lsb = self._parse_range()
        name = self._expect_id().text
        return NetDecl(direction, kind, msb, lsb, name, line=tok.line)

    def _parse_range(self) -> tuple[Expr | None, Expr | None]:
        if not self._accept("["):
            return None, None
        msb = self._parse_expr()
        self._expect(":")
        lsb = self._parse_expr()
        self._expect("]")
        return msb, lsb

    def _parse_module_item(self, mod: ModuleAst) -> None:
        tok = self._tokens[self._pos]
        if tok.kind == "eof":
            raise VsimParseError(f"line {tok.line}: missing endmodule")
        if tok.text in ("parameter", "localparam"):
            local = tok.text == "localparam"
            self._pos += 1
            name = self._expect_id().text
            self._expect("=")
            value = self._parse_expr()
            self._expect(";")
            mod.params.append(ParamDecl(name, value, local, line=tok.line))
            return
        if tok.text in ("reg", "wire"):
            kind = tok.text
            self._pos += 1
            msb, lsb = self._parse_range()
            name = self._expect_id().text
            if self._check("["):  # memory array: outside the subset
                raise VsimParseError(
                    f"line {tok.line}: memory arrays are outside the vsim subset"
                )
            self._expect(";")
            mod.nets.append(NetDecl(None, kind, msb, lsb, name, line=tok.line))
            return
        if tok.text == "assign":
            self._pos += 1
            target = self._expect_id().text
            self._expect("=")
            rhs = self._parse_expr()
            self._expect(";")
            mod.assigns.append(ContAssign(target, rhs, line=tok.line))
            return
        if tok.text == "always":
            self._pos += 1
            self._expect("@")
            self._expect("(")
            self._expect("posedge")
            clock = self._expect_id().text
            self._expect(")")
            body = self._parse_stmt_block()
            mod.always.append(AlwaysBlock(clock, body, line=tok.line))
            return
        if tok.kind == "id":
            mod.instances.append(self._parse_instance())
            return
        raise VsimParseError(
            f"line {tok.line}: unexpected module item {tok.text!r}"
        )

    def _parse_instance(self) -> Instance:
        tok = self._tokens[self._pos]
        module = self._expect_id().text
        inst = Instance(module=module, name="", line=tok.line)
        if self._accept("#"):
            self._expect("(")
            inst.param_overrides = self._comma_list(")", self._parse_override)
        inst.name = self._expect_id().text
        self._expect("(")
        inst.connections = self._comma_list(")", self._parse_connection)
        self._expect(";")
        return inst

    def _parse_override(self) -> tuple[str, Expr]:
        self._expect(".")
        name = self._expect_id().text
        self._expect("(")
        value = self._parse_expr()
        self._expect(")")
        return name, value

    def _parse_connection(self) -> Connection:
        dot = self._expect(".")
        port = self._expect_id().text
        self._expect("(")
        expr = None if self._check(")") else self._parse_expr()
        self._expect(")")
        return Connection(port, expr, line=dot.line)

    # ---------------------------------------------------------- statements

    def _parse_stmt_block(self) -> list[Stmt]:
        """A single statement, or a begin/end list."""
        if self._accept("begin"):
            stmts = []
            while not self._accept("end"):
                stmts.append(self._parse_stmt())
            return stmts
        return [self._parse_stmt()]

    def _parse_stmt(self) -> Stmt:
        tok = self._tokens[self._pos]
        if tok.text == "if":
            self._pos += 1
            self._expect("(")
            cond = self._parse_expr()
            self._expect(")")
            then = self._parse_stmt_block()
            other = self._parse_stmt_block() if self._accept("else") else []
            return If(cond, then, other, line=tok.line)
        if tok.text == "case":
            self._pos += 1
            self._expect("(")
            subject = self._parse_expr()
            self._expect(")")
            items = []
            while not self._accept("endcase"):
                items.append(self._parse_case_item())
            return Case(subject, items, line=tok.line)
        if tok.kind == "id":
            target = tok.text
            self._pos += 1
            op_tok = self._tokens[self._pos]
            if op_tok.text != "<=":
                raise VsimParseError(
                    f"line {op_tok.line}: only nonblocking assignment is in "
                    f"the subset (got {op_tok.text!r})"
                )
            self._pos += 1
            rhs = self._parse_expr()
            self._expect(";")
            return NonBlocking(target, rhs, line=tok.line)
        raise VsimParseError(
            f"line {tok.line}: unexpected statement {tok.text!r}"
        )

    def _parse_case_item(self) -> CaseItem:
        tok = self._tokens[self._pos]
        if self._accept("default"):
            self._accept(":")
            return CaseItem([], self._parse_stmt_block(), line=tok.line)
        labels = [self._parse_expr()]
        while self._accept(","):
            labels.append(self._parse_expr())
        self._expect(":")
        return CaseItem(labels, self._parse_stmt_block(), line=tok.line)

    # --------------------------------------------------------- expressions

    def _parse_expr(self) -> Expr:
        cond = self._parse_binary(0)
        if self._accept("?"):  # right-associative
            then = self._parse_expr()
            self._expect(":")
            other = self._parse_expr()
            return Ternary(cond, then, other, line=cond.line)
        return cond

    def _parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing: fold the operators of ``min_level`` and
        tighter to the left, each right operand taking only what binds
        tighter still.  Only a punct token's text is a ``_LEVEL_OF`` key."""
        left = self._parse_unary()
        while True:
            op = self._tokens[self._pos].text
            level = _LEVEL_OF.get(op)
            if level is None or level < min_level:
                return left
            self._pos += 1
            right = self._parse_binary(level + 1)
            left = Binary(op, left, right, line=left.line)

    def _parse_unary(self) -> Expr:
        tok = self._tokens[self._pos]
        if tok.kind == "punct" and tok.text in _UNARY_OPS:
            self._pos += 1
            return Unary(tok.text, self._parse_unary(), line=tok.line)
        expr = self._parse_primary()
        while self._accept("["):  # postfix selects
            msb = self._parse_expr()
            lsb = None
            if self._accept(":"):
                lsb = self._parse_expr()
            self._expect("]")
            expr = Select(expr, msb, lsb, line=expr.line)
        return expr

    def _parse_primary(self) -> Expr:
        tok = self._tokens[self._pos]
        if tok.kind == "num":
            self._pos += 1
            return Num(tok.value, tok.width, line=tok.line)
        if tok.text == "(":
            self._pos += 1
            expr = self._parse_expr()
            self._expect(")")
            return expr
        if tok.text == "{":
            return self._parse_concat()
        if tok.text == "$signed":
            self._pos += 1
            self._expect("(")
            operand = self._parse_expr()
            self._expect(")")
            return SignedCast(operand, line=tok.line)
        if tok.kind == "id":
            self._pos += 1
            if self._accept("("):  # operator-core call
                args = self._comma_list(")", self._parse_expr)
                return FuncCall(tok.text, args, line=tok.line)
            return Ref(tok.text, line=tok.line)
        raise VsimParseError(
            f"line {tok.line}: unexpected token {tok.text!r} in expression"
        )

    def _parse_concat(self) -> Expr:
        open_tok = self._expect("{")
        first = self._parse_expr()
        if self._accept("{"):  # replication: {count{value}}
            value = self._parse_expr()
            self._expect("}")
            self._expect("}")
            return Repeat(first, value, line=open_tok.line)
        parts = [first]
        while self._accept(","):
            parts.append(self._parse_expr())
        self._expect("}")
        return Concat(parts, line=open_tok.line)
