"""Abstract syntax tree for the C subset.

Plain dataclasses; every node carries a source line for diagnostics.
Type names in the AST are :class:`CTypeExpr` values resolved to IR types
during semantic analysis (structs may be used before their definition).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Node:
    """Base class of all AST nodes; carries the source line."""

    line: int = field(default=0, kw_only=True)


# -- type expressions (syntactic; resolved by sema) ---------------------------


@dataclass
class CTypeExpr(Node):
    """A syntactic type: base name plus pointer depth.

    ``base`` is one of ``void int char float double`` or ``struct:<tag>``
    or a typedef name.
    """

    base: str = ""
    pointer_depth: int = 0

    def __str__(self) -> str:
        return self.base + "*" * self.pointer_depth


# -- expressions ---------------------------------------------------------------


@dataclass
class IntLiteral(Node):
    """Integer (or character) literal."""

    value: int = 0


@dataclass
class FloatLiteral(Node):
    """Floating-point literal; ``is_single`` for an 'f' suffix."""

    value: float = 0.0
    is_single: bool = False  # 'f' suffix


@dataclass
class Identifier(Node):
    """A name reference (variable or global)."""

    name: str = ""


@dataclass
class BinaryExpr(Node):
    """Infix binary expression (including the comma operator)."""

    op: str = ""
    lhs: Node = None
    rhs: Node = None


@dataclass
class UnaryExpr(Node):
    """Prefix unary: ``- ! ~ * & ++ --``."""

    op: str = ""
    operand: Node = None


@dataclass
class PostfixIncDec(Node):
    """Postfix ``x++`` / ``x--``."""

    op: str = ""  # '++' or '--'
    operand: Node = None


@dataclass
class AssignExpr(Node):
    """``lhs op rhs`` where op is ``=`` or a compound like ``+=``."""

    op: str = "="
    lhs: Node = None
    rhs: Node = None


@dataclass
class ConditionalExpr(Node):
    """Ternary ``cond ? a : b``."""

    cond: Node = None
    if_true: Node = None
    if_false: Node = None


@dataclass
class CallExpr(Node):
    """Function call by name."""

    name: str = ""
    args: list[Node] = field(default_factory=list)


@dataclass
class IndexExpr(Node):
    """Array subscript ``base[index]``."""

    base: Node = None
    index: Node = None


@dataclass
class MemberExpr(Node):
    """Member access ``base.member`` or ``base->member``."""

    base: Node = None
    member: str = ""
    arrow: bool = False  # True for '->'


@dataclass
class CastExpr(Node):
    """Explicit cast ``(type)expr``."""

    target: CTypeExpr = None
    operand: Node = None


@dataclass
class SizeofExpr(Node):
    """``sizeof(type)``."""

    target: CTypeExpr = None


# -- statements -----------------------------------------------------------------


@dataclass
class ExprStmt(Node):
    """Expression evaluated for its side effects."""

    expr: Node = None


@dataclass
class DeclStmt(Node):
    """A local declaration, possibly with array suffix and initializer."""

    type: CTypeExpr = None
    name: str = ""
    array_length: int | None = None
    init: Node = None


@dataclass
class CompoundStmt(Node):
    """Braced block (its own lexical scope)."""

    body: list[Node] = field(default_factory=list)


@dataclass
class IfStmt(Node):
    """``if``/``else`` statement."""

    cond: Node = None
    then_body: Node = None
    else_body: Node = None


@dataclass
class WhileStmt(Node):
    """``while`` loop."""

    cond: Node = None
    body: Node = None


@dataclass
class DoWhileStmt(Node):
    """``do ... while`` loop."""

    body: Node = None
    cond: Node = None


@dataclass
class ForStmt(Node):
    """``for`` loop with optional init/cond/step."""

    init: Node = None  # DeclStmt, ExprStmt, or None
    cond: Node = None
    step: Node = None
    body: Node = None


@dataclass
class ReturnStmt(Node):
    """``return`` with an optional value."""

    value: Node = None


@dataclass
class BreakStmt(Node):
    """``break`` out of the innermost loop."""

    pass


@dataclass
class ContinueStmt(Node):
    """``continue`` to the innermost loop's next iteration."""

    pass


# -- top level --------------------------------------------------------------------


@dataclass
class ParamDecl(Node):
    """One formal parameter of a function."""

    type: CTypeExpr = None
    name: str = ""


@dataclass
class FunctionDecl(Node):
    """Function definition or prototype (body is None)."""

    return_type: CTypeExpr = None
    name: str = ""
    params: list[ParamDecl] = field(default_factory=list)
    body: CompoundStmt = None  # None for prototypes


@dataclass
class StructDecl(Node):
    """``struct``/``typedef struct`` declaration with its fields."""

    tag: str = ""
    fields: list[DeclStmt] = field(default_factory=list)
    typedef_name: str | None = None


@dataclass
class GlobalDecl(Node):
    """Module-level variable, optionally an initialised array."""

    type: CTypeExpr = None
    name: str = ""
    array_length: int | None = None
    init_values: list[float] | None = None


@dataclass
class TranslationUnit(Node):
    """The whole parsed source file."""

    decls: list[Node] = field(default_factory=list)
