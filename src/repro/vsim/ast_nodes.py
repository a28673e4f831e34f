"""AST node types for the emitter's Verilog subset.

Plain dataclasses — the parser builds these, the elaborator renders them
as Python text.  Every node keeps the source line it came from so lint and
elaboration errors point back into the emitted text.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Expr:
    line: int = field(default=0, kw_only=True)


@dataclass(slots=True)
class Num(Expr):
    """A literal: ``64'hdeadbeef``, ``4'd3``, ``17``.

    ``width`` is ``None`` for unsized literals (treated as 32-bit).
    """

    value: int
    width: int | None = None


@dataclass(slots=True)
class Ref(Expr):
    """A plain identifier reference."""

    name: str


@dataclass(slots=True)
class Unary(Expr):
    op: str  # ! ~ - +
    operand: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Binary(Expr):
    op: str
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Ternary(Expr):
    cond: Expr
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Select(Expr):
    """Constant part-select ``base[msb:lsb]`` or bit-select ``base[idx]``.

    The emitter only produces constant selects; dynamic indexing is
    outside the subset.
    """

    base: Expr
    msb: Expr = None  # type: ignore[assignment]
    lsb: Expr | None = None


@dataclass(slots=True)
class Concat(Expr):
    parts: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class Repeat(Expr):
    """Replication ``{count{value}}`` (count must be constant)."""

    count: Expr
    value: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class SignedCast(Expr):
    """``$signed(expr)`` — marks the operand signed, width unchanged."""

    operand: Expr


@dataclass(slots=True)
class FuncCall(Expr):
    """Call to an ``fp_*`` vendor-IP simulation model."""

    name: str
    args: list[Expr] = field(default_factory=list)


# --------------------------------------------------------------------------
# Statements (inside always blocks)
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Stmt:
    line: int = field(default=0, kw_only=True)


@dataclass(slots=True)
class NonBlocking(Stmt):
    """``target <= rhs;`` — the only assignment form inside always."""

    target: str
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: list[Stmt] = field(default_factory=list)
    other: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class CaseItem:
    labels: list[Expr]  # empty == default
    body: list[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass(slots=True)
class Case(Stmt):
    subject: Expr
    items: list[CaseItem] = field(default_factory=list)


# --------------------------------------------------------------------------
# Module-level declarations
# --------------------------------------------------------------------------


@dataclass(slots=True)
class NetDecl:
    """``input wire [31:0] name`` / ``reg [3:0] name`` / ``wire name``."""

    direction: str | None  # "input" | "output" | None (internal)
    kind: str  # "reg" | "wire"
    msb: Expr | None  # None == 1-bit scalar
    lsb: Expr | None
    name: str
    line: int = 0


@dataclass(slots=True)
class ParamDecl:
    name: str
    value: Expr
    local: bool  # localparam vs parameter
    line: int = 0


@dataclass(slots=True)
class ContAssign:
    target: str
    rhs: Expr
    line: int = 0


@dataclass(slots=True)
class AlwaysBlock:
    clock: str  # the posedge signal name
    body: list[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass(slots=True)
class Connection:
    port: str
    expr: Expr | None  # None == unconnected ``.port()``
    line: int = 0


@dataclass(slots=True)
class Instance:
    module: str
    name: str
    param_overrides: list[tuple[str, Expr]] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)
    line: int = 0


@dataclass(slots=True)
class ModuleAst:
    name: str
    ports: list[NetDecl] = field(default_factory=list)
    params: list[ParamDecl] = field(default_factory=list)
    nets: list[NetDecl] = field(default_factory=list)
    assigns: list[ContAssign] = field(default_factory=list)
    always: list[AlwaysBlock] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    line: int = 0
