"""Elaboration: flatten a module hierarchy into an executable design.

Takes parsed module ASTs and produces a :class:`Design`:

* every net of every instance becomes a flat two-state signal named with
  its dotted instance path (``u_core.mem_req``) and numbered with its
  slot in the simulation's state list ``s``,
* parameters are substituted with their (override-resolved) constant
  values,
* every expression is rendered as Python text over ``s``; continuous
  assigns — including the implicit ones created by instance port
  connections — are topologically sorted, and the settle function of
  what a change of one signal reaches is rendered on first use,
* the ``always @(posedge ...)`` blocks become one edge function: each
  block reads pre-edge state and writes a nonblocking-assignment buffer,
  a ``case`` dispatching through a dict of per-item functions.

Text becomes code through the interpreter's generator (``_Text``).

Width semantics follow self-determined Verilog sizing for the subset the
emitter produces: binary arithmetic/bitwise results take the wider
operand width, comparisons are 1 bit, shifts take the left operand's
width, concatenations/part-selects are unsigned, and ``$signed`` marks
an operand for signed extension/comparison/division.  Assignment-context
widening (extending operands to the LHS width *before* an operation) is
deliberately not modelled; the emitter never relies on it, and
:mod:`repro.vsim.lint` rejects modules that would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..interp.interpreter import _Text
from .ast_nodes import (
    Binary,
    Case,
    Concat,
    Expr,
    FuncCall,
    If,
    ModuleAst,
    NetDecl,
    NonBlocking,
    Num,
    Ref,
    Repeat,
    Select,
    SignedCast,
    Stmt,
    Ternary,
    Unary,
)
from .errors import VsimElabError, VsimRuntimeError
from .intrinsics import INTRINSICS
from .parser import parse_verilog


def _mask(width: int) -> int:
    return (1 << width) - 1


def _divide(a: int, b: int, width: int, signed: bool, rem: bool) -> int:
    """``a / b`` (``a % b`` when ``rem``) at ``width``, C-style when signed."""
    if b == 0:
        raise VsimRuntimeError("division by zero")
    m, half = _mask(width), 1 << (width - 1)
    if signed:
        sa, sb = (a ^ half) - half, (b ^ half) - half
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return (q if not rem else sa - q * sb) & m
    return (a % b if rem else a // b) & m


#: What generated text names besides slots and ``int`` literals.
_NAMES = {"divide": _divide, **{name: core for name, (core, _) in INTRINSICS.items()}}


def _function(body: list[str], params: str):
    """``def (params): body`` through the interpreter's generator, compiled
    for the design alone: its code lives as long as the design."""
    text = _Text(None, None)
    text.ns.update(_NAMES)
    text.body += body
    return text.function(params, shared=False)


@dataclass(frozen=True)
class CExpr:
    """A rendered expression: Python text over the state list ``s``
    (always one atom: a literal, a subscript or parenthesised) plus
    static type facts."""

    text: str
    width: int
    signed: bool
    deps: frozenset[str]


def _signed(text: str, width: int) -> str:
    """``text``'s value read as a ``width``-bit two's complement number."""
    half = 1 << (width - 1)
    return f"(({text} ^ {half}) - {half})"


def _extend(e: CExpr, width: int) -> str:
    """``e`` widened to ``width`` bits: sign-extended when signed."""
    if width <= e.width or not e.signed:
        return e.text
    return f"({_signed(e.text, e.width)} & {_mask(width)})"


@dataclass
class Signal:
    name: str
    width: int
    kind: str  # "reg" | "wire"
    direction: str | None = None  # input/output for ports, None internal
    slot: int = 0  # index into the simulation's state list


@dataclass
class Design:
    """A flattened, rendered module hierarchy ready to simulate.

    Shared read-only by every :class:`~repro.vsim.sim.Simulation` of it:
    a simulation keeps its own state list.
    """

    top: str
    signals: dict[str, Signal] = field(default_factory=dict)
    #: (target, expr) in topological order.
    comb: list[tuple[str, CExpr]] = field(default_factory=list)
    #: ``edge(s)``: one rising clock edge on state list ``s``, settled.
    edge: Callable[[list], None] | None = None
    #: slot (None: every signal) -> its rendered cone.
    cones: dict = field(default_factory=dict)

    def reach(self, sources) -> list[str]:
        """The settle lines of the assigns ``sources`` reach, in
        topological order (one pass: an assign follows what it reads); a
        source that is itself assigned is among them, so its driver wins
        over a poke."""
        seen, lines = set(sources), []
        for target, cexpr in self.comb:
            if target in seen or not seen.isdisjoint(cexpr.deps):
                seen.add(target)
                lines.append(f"s[{self.signals[target].slot}] = {cexpr.text}")
        return lines

    def cone(self, slot: int | None):
        """``settle(s)`` of what a change of signal ``slot`` reaches (of
        every assign for None), rendered on first use."""
        if slot not in self.cones:
            names = list(self.signals)
            lines = self.reach(names if slot is None else [names[slot]])
            self.cones.setdefault(slot, _function(lines or ["pass"], "s"))
        return self.cones[slot]


def elaborate(
    source: str,
    top: str | None = None,
    params: dict[str, int] | None = None,
) -> Design:
    """Parse ``source`` and flatten the ``top`` module (default: first)."""
    modules = parse_verilog(source)
    if not modules:
        raise VsimElabError("no modules in source")
    by_name = {m.name: m for m in modules}
    top_mod = by_name[top] if top else modules[0]
    if top and top not in by_name:
        raise VsimElabError(f"unknown top module {top!r}")
    elab = _Elaboration(Design(top=top_mod.name), by_name)
    elab.instantiate(top_mod, "", params or {})
    elab.design.comb = _topo_sort(elab.raw_comb, elab.design)
    elab.design.edge = elab.render_edge()
    return elab.design


# --------------------------------------------------------------------------
# Instance flattening
# --------------------------------------------------------------------------


class _Scope:
    """Name resolution for one module instance."""

    def __init__(self, module: ModuleAst) -> None:
        self.module = module
        self.params: dict[str, tuple[int, int]] = {}  # name -> (value, width)
        self.locals: dict[str, Signal] = {}  # local name -> signal

    def resolve(self, name: str, line: int) -> Signal:
        sig = self.locals.get(name)
        if sig is None:
            raise VsimElabError(
                f"{self.module.name} line {line}: undeclared identifier {name!r}"
            )
        return sig


class _Elaboration:
    """One design being flattened: its continuous assigns as they are
    found, and the edge function's text (its ``case`` items and tables
    at the top, the always blocks' lines in order)."""

    def __init__(self, design: Design, by_name: dict[str, ModuleAst]) -> None:
        self.design = design
        self.by_name = by_name
        self.raw_comb: list[tuple[str, CExpr]] = []  # (target, expr)
        self.names = 0  # generated names (temporaries, items, tables) so far
        self.defs: list[str] = []  # per-case-item functions and tables
        self.blocks: list[str] = []  # the always blocks, in order
        self.assigned: set[str] = set()  # nonblocking-assignment targets

    def instantiate(
        self,
        mod: ModuleAst,
        prefix: str,
        overrides: dict[str, int],
        parent_scope: _Scope | None = None,
        connections: list | None = None,
    ) -> None:
        design, raw_comb = self.design, self.raw_comb
        scope = _Scope(mod)

        for pdecl in mod.params:
            value = self.const_eval(pdecl.value, scope, pdecl.line)
            width = pdecl.value.width if isinstance(pdecl.value, Num) else None
            if not pdecl.local and pdecl.name in overrides:
                value = overrides[pdecl.name]
            scope.params[pdecl.name] = (value, width or 32)

        for decl in list(mod.ports) + list(mod.nets):
            width = self.decl_width(decl, scope)
            gname = prefix + decl.name
            if gname in design.signals:
                raise VsimElabError(
                    f"{mod.name} line {decl.line}: duplicate declaration "
                    f"of {decl.name!r}"
                )
            sig = Signal(gname, width, decl.kind, decl.direction, len(design.signals))
            design.signals[gname] = sig
            scope.locals[decl.name] = sig

        # Port connections become implicit continuous assigns.
        for conn in connections or []:
            port = next((p for p in mod.ports if p.name == conn.port), None)
            if port is None:
                raise VsimElabError(
                    f"{mod.name}: instance connects unknown port {conn.port!r}"
                )
            if conn.expr is None:
                continue  # unconnected: inputs read 0, outputs dangle
            if port.direction == "input":
                cexpr = self.expr(conn.expr, parent_scope)
                raw_comb.append((prefix + port.name, cexpr))
            else:
                if not isinstance(conn.expr, Ref):
                    raise VsimElabError(
                        f"{mod.name}: output port {conn.port!r} must connect "
                        "to a plain net"
                    )
                target = parent_scope.resolve(conn.expr.name, conn.line)
                cexpr = self.expr(Ref(port.name, line=conn.line), scope)
                raw_comb.append((target.name, cexpr))

        for assign in mod.assigns:
            target = scope.resolve(assign.target, assign.line)
            raw_comb.append((target.name, self.expr(assign.rhs, scope)))

        for block in mod.always:
            self.stmts(block.body, scope, self.blocks, 1)

        for inst in mod.instances:
            child = self.by_name.get(inst.module)
            if child is None:
                raise VsimElabError(
                    f"{mod.name}: instance of unknown module {inst.module!r}"
                )
            child_overrides = {
                pname: self.const_eval(pexpr, scope, inst.line)
                for pname, pexpr in inst.param_overrides
            }
            self.instantiate(
                child,
                prefix + inst.name + ".",
                child_overrides,
                parent_scope=scope,
                connections=inst.connections,
            )

    def decl_width(self, decl: NetDecl, scope: _Scope) -> int:
        if decl.msb is None:
            return 1
        msb = self.const_eval(decl.msb, scope, decl.line)
        lsb = self.const_eval(decl.lsb, scope, decl.line)
        if msb < lsb:
            raise VsimElabError(
                f"{scope.module.name} line {decl.line}: reversed range on "
                f"{decl.name!r}"
            )
        return msb - lsb + 1

    # ----------------------------------------------------------- expressions

    def const_eval(self, expr: Expr, scope: _Scope, line: int) -> int:
        cexpr = self.expr(expr, scope)
        if cexpr.deps:
            raise VsimElabError(
                f"{scope.module.name} line {line}: expression must be constant"
            )
        if cexpr.text.isdigit():
            return int(cexpr.text)
        return _function([f"return {cexpr.text}"], "")()

    def fresh(self, prefix: str) -> str:
        self.names += 1
        return f"{prefix}{self.names}"

    def expr(self, expr: Expr, scope: _Scope) -> CExpr:
        if isinstance(expr, Num):
            width = expr.width or 32
            return CExpr(str(expr.value & _mask(width)), width, False, frozenset())

        if isinstance(expr, Ref):
            if expr.name in scope.params:
                value, width = scope.params[expr.name]
                return CExpr(str(value & _mask(width)), width, False, frozenset())
            sig = scope.resolve(expr.name, expr.line)
            return CExpr(
                f"s[{sig.slot}]", sig.width, False, frozenset((sig.name,))
            )

        if isinstance(expr, SignedCast):
            inner = self.expr(expr.operand, scope)
            return CExpr(inner.text, inner.width, True, inner.deps)

        if isinstance(expr, Unary):
            return self.unary(expr, scope)

        if isinstance(expr, Binary):
            return self.binary(expr, scope)

        if isinstance(expr, Ternary):
            cond = self.expr(expr.cond, scope)
            then = self.expr(expr.then, scope)
            other = self.expr(expr.other, scope)
            width = max(then.width, other.width)
            return CExpr(
                f"({_extend(then, width)} if {cond.text} else {_extend(other, width)})",
                width, then.signed and other.signed,
                cond.deps | then.deps | other.deps,
            )

        if isinstance(expr, Select):
            base = self.expr(expr.base, scope)
            msb = self.const_eval(expr.msb, scope, expr.line)
            lsb = msb if expr.lsb is None else self.const_eval(expr.lsb, scope, expr.line)
            if msb < lsb or msb >= base.width:
                raise VsimElabError(
                    f"{scope.module.name} line {expr.line}: part-select "
                    f"[{msb}:{lsb}] out of range for width {base.width}"
                )
            width = msb - lsb + 1
            shifted = f"({base.text} >> {lsb})" if lsb else base.text
            return CExpr(f"({shifted} & {_mask(width)})", width, False, base.deps)

        if isinstance(expr, Concat):
            parts = [self.expr(p, scope) for p in expr.parts]
            width = sum(p.width for p in parts)
            deps = frozenset().union(*(p.deps for p in parts))
            terms, shift = [], width
            for part in parts:
                shift -= part.width
                terms.append(f"{part.text} << {shift}" if shift else part.text)
            return CExpr(f"({' | '.join(terms) or '0'})", width, False, deps)

        if isinstance(expr, Repeat):
            count = self.const_eval(expr.count, scope, expr.line)
            value = self.expr(expr.value, scope)
            width = count * value.width
            if count == 0:
                return CExpr(f"({value.text} & 0)", 0, False, value.deps)
            t = self.fresh("t")
            head = f"({t} := {value.text})"  # read once, on the left
            terms = [
                (head if k == count - 1 else t) + (f" << {k * value.width}" if k else "")
                for k in range(count - 1, -1, -1)
            ]
            return CExpr(f"({' | '.join(terms)})", width, False, value.deps)

        if isinstance(expr, FuncCall):
            entry = INTRINSICS.get(expr.name)
            if entry is None:
                raise VsimElabError(
                    f"{scope.module.name} line {expr.line}: unknown operator "
                    f"core {expr.name!r}"
                )
            width = entry[1]
            args = [self.expr(a, scope) for a in expr.args]
            deps = frozenset().union(*(a.deps for a in args))
            values = ", ".join(_signed(a.text, a.width) if a.signed else a.text for a in args)
            return CExpr(f"({expr.name}({values}) & {_mask(width)})", width, False, deps)

        raise VsimElabError(f"unsupported expression node {type(expr).__name__}")

    def unary(self, expr: Unary, scope: _Scope) -> CExpr:
        inner = self.expr(expr.operand, scope)
        t, w = inner.text, inner.width
        if expr.op == "!":
            return CExpr(f"(0 if {t} else 1)", 1, False, inner.deps)
        if expr.op == "~":
            return CExpr(f"(~{t} & {_mask(w)})", w, inner.signed, inner.deps)
        if expr.op == "-":
            return CExpr(f"(-{t} & {_mask(w)})", w, inner.signed, inner.deps)
        if expr.op == "+":
            return inner
        raise VsimElabError(f"unsupported unary operator {expr.op!r}")

    def binary(self, expr: Binary, scope: _Scope) -> CExpr:
        left = self.expr(expr.left, scope)
        right = self.expr(expr.right, scope)
        op = expr.op
        deps = left.deps | right.deps
        lt, rt = left.text, right.text
        lw = left.width

        if op == "&&":
            return CExpr(f"(1 if {lt} and {rt} else 0)", 1, False, deps)
        if op == "||":
            return CExpr(f"(1 if {lt} or {rt} else 0)", 1, False, deps)

        if op in ("<<", ">>", ">>>"):
            m = _mask(lw)
            if op == "<<":
                # The shift amount is read first; a left operand shifted
                # out entirely is not evaluated.
                t = self.fresh("t")
                text = f"(0 if ({t} := {rt}) >= {lw} else ({lt} << {t}) & {m})"
            elif op == ">>>" and left.signed:
                text = f"(({_signed(lt, lw)} >> {rt}) & {m})"
            else:
                text = f"({lt} >> {rt})"
            return CExpr(text, lw, left.signed and op == ">>>", deps)

        # Remaining operators extend both operands to the common width.
        width = max(lw, right.width)
        signed = left.signed and right.signed

        if op in ("==", "!=", "<", "<=", ">", ">="):
            a, b = _extend(left, width), _extend(right, width)
            if signed:
                a, b = _signed(a, width), _signed(b, width)
            return CExpr(f"(1 if {a} {op} {b} else 0)", 1, False, deps)

        a, b = _extend(left, width), _extend(right, width)
        m = _mask(width)
        if op in ("+", "-", "*"):
            text = f"(({a} {op} {b}) & {m})"
        elif op in ("&", "|", "^"):
            text = f"({a} {op} {b})"
        elif op in ("/", "%"):
            if not signed and b.isdigit() and int(b):
                text = f"(({a} {'%' if op == '%' else '//'} {b}) & {m})"
            else:
                text = f"divide({a}, {b}, {width}, {signed}, {op == '%'})"
        else:
            raise VsimElabError(f"unsupported binary operator {op!r}")
        return CExpr(text, width, signed, deps)

    # ------------------------------------------------------------ statements

    def stmts(self, stmts: list[Stmt], scope: _Scope, out: list[str], depth: int) -> None:
        """``stmts`` as lines at ``depth`` of a function of ``(s, n)``:
        ``s`` the pre-edge state, ``n`` the nonblocking buffer."""
        pad = " " * depth
        if not stmts:
            out.append(pad + "pass")
        for stmt in stmts:
            if isinstance(stmt, NonBlocking):
                target = scope.resolve(stmt.target, stmt.line)
                rhs = self.expr(stmt.rhs, scope)
                self.assigned.add(target.name)
                out.append(
                    f"{pad}n[{target.slot}] = "
                    f"({_extend(rhs, target.width)} & {_mask(target.width)})"
                )
            elif isinstance(stmt, If):
                cond = self.expr(stmt.cond, scope)
                out.append(f"{pad}if {cond.text}:")
                self.stmts(stmt.then, scope, out, depth + 1)
                if stmt.other:
                    out.append(pad + "else:")
                    self.stmts(stmt.other, scope, out, depth + 1)
            elif isinstance(stmt, Case):
                out.append(pad + self.case(stmt, scope))
            else:
                raise VsimElabError(f"unsupported statement {type(stmt).__name__}")

    def case(self, stmt: Case, scope: _Scope) -> str:
        """A ``case`` as one dict lookup and call: each item becomes a
        function of ``(s, n)``; a label listed twice keeps its last item."""
        subject = self.expr(stmt.subject, scope)
        sm = _mask(subject.width)
        table: list[str] = []
        default = None
        for item in stmt.items:
            arm = self.fresh("a")
            body = [f" def {arm}(s, n):"]
            self.stmts(item.body, scope, body, 2)  # a nested case adds its own first
            self.defs += body
            if not item.labels:
                default = arm
            for label in item.labels:
                value = self.const_eval(label, scope, item.line) & sm
                table.append(f"{value}: {arm}")
        if default is None:
            default = self.fresh("a")
            self.defs += [f" def {default}(s, n):", "  pass"]
        name = self.fresh("c")
        self.defs.append(f" {name} = {{{', '.join(table)}}}")
        return f"{name}.get({subject.text} & {sm}, {default})(s, n)"

    def render_edge(self) -> Callable[[list], None]:
        """The edge function: its items and tables are rendered once, by
        a factory run here, and reached as closure variables."""
        settle = self.design.reach(self.assigned)
        return _function([
            *self.defs,
            " def edge(s):",
            "  n = {}",
            *(" " + line for line in self.blocks),
            "  for k, v in n.items():",
            "   s[k] = v",
            *("  " + line for line in settle),
            " return edge",
        ], "")()


def _topo_sort(
    raw: list[tuple[str, CExpr]], design: Design
) -> list[tuple[str, CExpr]]:
    """Order continuous assigns so dependencies evaluate first."""
    drivers: dict[str, CExpr] = {}
    for target, cexpr in raw:
        if target in drivers:
            raise VsimElabError(f"multiply-driven net {target!r}")
        sig = design.signals[target]
        if sig.kind == "reg" and sig.direction is None:
            raise VsimElabError(f"continuous assignment to reg {target!r}")
        drivers[target] = cexpr

    order: list[tuple[str, CExpr]] = []
    visiting: set[str] = set()
    done: set[str] = set()

    def visit(target: str) -> None:
        if target in done:
            return
        if target in visiting:
            raise VsimElabError(f"combinational loop through {target!r}")
        visiting.add(target)
        for dep in drivers[target].deps:
            if dep in drivers:
                visit(dep)
        visiting.discard(target)
        done.add(target)
        order.append((target, drivers[target]))

    for target in drivers:
        visit(target)
    return order
