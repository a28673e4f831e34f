"""AST → IR lowering.

Locals live in ``alloca`` slots (promoted to SSA registers afterwards by
:mod:`repro.transforms.mem2reg`, mirroring the clang/LLVM pipeline the
paper builds on).  The lowering implements C's implicit conversions,
array-to-pointer decay, short-circuit evaluation, and pointer arithmetic.
"""

from __future__ import annotations

from ..errors import NestingError, SemanticError
from ..ir.basicblock import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.module import Module
from ..ir.types import (
    BOOL,
    F32,
    F64,
    I8,
    I32,
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
)
from ..ir.values import Constant, Value
from . import ast_nodes as ast
from .parser import parse
from .sema import TypeContext, analyze


def compile_c(source: str, module_name: str = "module") -> Module:
    """Front door: parse, analyze and lower C source into an IR module."""
    try:
        unit = parse(source)
        module, ctx = analyze(unit, module_name)
        for decl in unit.decls:
            if isinstance(decl, ast.FunctionDecl) and decl.body is not None:
                _FunctionLowerer(module, ctx, decl).lower()
    except RecursionError:  # parser, sema and lowerer all recurse on the tree
        raise NestingError(
            "nesting too deep: expressions or blocks nest beyond what the "
            "frontend can walk; flatten the source"
        ) from None
    return module


class _Scope:
    """One lexical scope of local variables: name -> (slot addr, type)."""

    def __init__(self) -> None:
        self.vars: dict[str, tuple[Value, Type]] = {}


class _FunctionLowerer:
    def __init__(self, module: Module, ctx: TypeContext, decl: ast.FunctionDecl) -> None:
        self.module = module
        self.ctx = ctx
        self.decl = decl
        self.function: Function = module.get_function(decl.name)
        self.builder = IRBuilder()
        self.scopes: list[_Scope] = []
        self.break_targets: list[BasicBlock] = []
        self.continue_targets: list[BasicBlock] = []
        self._entry: BasicBlock | None = None
        self._alloca_count = 0

    # -- scope handling ----------------------------------------------------------

    def push_scope(self) -> None:
        self.scopes.append(_Scope())

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, slot: Value, type_: Type, line: int) -> None:
        scope = self.scopes[-1]
        if name in scope.vars:
            raise SemanticError(f"line {line}: redeclaration of {name!r}")
        scope.vars[name] = (slot, type_)

    def lookup(self, name: str) -> tuple[Value, Type] | None:
        for scope in reversed(self.scopes):
            if name in scope.vars:
                return scope.vars[name]
        return None

    def _new_alloca(self, type_: Type, name: str) -> Value:
        """Create an alloca at the top of the entry block (mem2reg-friendly)."""
        from ..ir.instructions import Alloca

        slot = Alloca(type_, name)
        assert self._entry is not None
        self._entry.insert(self._alloca_count, slot)
        self._alloca_count += 1
        return slot

    # -- driver -------------------------------------------------------------------

    def lower(self) -> Function:
        self._entry = self.function.new_block("entry")
        self.builder.set_block(self._entry)
        self.push_scope()
        for param, arg in zip(self.decl.params, self.function.args):
            ptype = self.ctx.resolve(param.type)
            slot = self._new_alloca(ptype, param.name)
            self.builder.store(arg, slot)
            self.declare(param.name, slot, ptype, param.line)
        self.lower_stmt(self.decl.body)
        self.pop_scope()
        self._finalize()
        return self.function

    def _finalize(self) -> None:
        return_type = self.function.function_type.return_type
        for block in self.function.blocks:
            if block.terminator is None:
                self.builder.set_block(block)
                if return_type.is_void:
                    self.builder.ret()
                else:
                    self.builder.ret(_zero_of(return_type))

    # -- statements -------------------------------------------------------------------

    def lower_stmt(self, stmt: ast.Node) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            self.push_scope()
            for sub in stmt.body:
                self.lower_stmt(sub)
            self.pop_scope()
        elif isinstance(stmt, ast.DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.rvalue(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            if not self.break_targets:
                raise SemanticError(f"line {stmt.line}: break outside a loop")
            self.builder.jump(self.break_targets[-1])
            self._start_dead_block("after.break")
        elif isinstance(stmt, ast.ContinueStmt):
            if not self.continue_targets:
                raise SemanticError(f"line {stmt.line}: continue outside a loop")
            self.builder.jump(self.continue_targets[-1])
            self._start_dead_block("after.continue")
        else:
            raise SemanticError(f"line {stmt.line}: cannot lower {type(stmt).__name__}")

    def _start_dead_block(self, name: str) -> None:
        self.builder.set_block(self.function.new_block(name))

    def _lower_decl(self, stmt: ast.DeclStmt) -> None:
        vtype = self.ctx.resolve(stmt.type)
        if stmt.array_length is not None:
            vtype = ArrayType(vtype, stmt.array_length)
        if vtype.is_void:
            raise SemanticError(f"line {stmt.line}: variable {stmt.name} has void type")
        slot = self._new_alloca(vtype, stmt.name)
        self.declare(stmt.name, slot, vtype, stmt.line)
        if stmt.init is not None:
            value = self.convert(self.rvalue(stmt.init), vtype, stmt.line)
            self.builder.store(value, slot)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        then_block = self.function.new_block("if.then")
        merge_block = self.function.new_block("if.end")
        else_block = (
            self.function.new_block("if.else") if stmt.else_body else merge_block
        )
        cond = self.condition(stmt.cond)
        self.builder.cond_branch(cond, then_block, else_block)
        self.builder.set_block(then_block)
        self.lower_stmt(stmt.then_body)
        if self.builder.block.terminator is None:
            self.builder.jump(merge_block)
        if stmt.else_body:
            self.builder.set_block(else_block)
            self.lower_stmt(stmt.else_body)
            if self.builder.block.terminator is None:
                self.builder.jump(merge_block)
        self.builder.set_block(merge_block)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        header = self.function.new_block("while.cond")
        body = self.function.new_block("while.body")
        exit_ = self.function.new_block("while.end")
        self.builder.jump(header)
        self.builder.set_block(header)
        self.builder.cond_branch(self.condition(stmt.cond), body, exit_)
        self.break_targets.append(exit_)
        self.continue_targets.append(header)
        self.builder.set_block(body)
        self.lower_stmt(stmt.body)
        if self.builder.block.terminator is None:
            self.builder.jump(header)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.builder.set_block(exit_)

    def _lower_do_while(self, stmt: ast.DoWhileStmt) -> None:
        body = self.function.new_block("do.body")
        cond_block = self.function.new_block("do.cond")
        exit_ = self.function.new_block("do.end")
        self.builder.jump(body)
        self.break_targets.append(exit_)
        self.continue_targets.append(cond_block)
        self.builder.set_block(body)
        self.lower_stmt(stmt.body)
        if self.builder.block.terminator is None:
            self.builder.jump(cond_block)
        self.builder.set_block(cond_block)
        self.builder.cond_branch(self.condition(stmt.cond), body, exit_)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.builder.set_block(exit_)

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        self.push_scope()
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        header = self.function.new_block("for.cond")
        body = self.function.new_block("for.body")
        latch = self.function.new_block("for.inc")
        exit_ = self.function.new_block("for.end")
        self.builder.jump(header)
        self.builder.set_block(header)
        if stmt.cond is not None:
            self.builder.cond_branch(self.condition(stmt.cond), body, exit_)
        else:
            self.builder.jump(body)
        self.break_targets.append(exit_)
        self.continue_targets.append(latch)
        self.builder.set_block(body)
        self.lower_stmt(stmt.body)
        if self.builder.block.terminator is None:
            self.builder.jump(latch)
        self.builder.set_block(latch)
        if stmt.step is not None:
            self.rvalue(stmt.step)
        self.builder.jump(header)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.builder.set_block(exit_)
        self.pop_scope()

    def _lower_return(self, stmt: ast.ReturnStmt) -> None:
        return_type = self.function.function_type.return_type
        if stmt.value is None:
            if not return_type.is_void:
                raise SemanticError(f"line {stmt.line}: return without a value")
            self.builder.ret()
        else:
            value = self.convert(self.rvalue(stmt.value), return_type, stmt.line)
            self.builder.ret(value)
        self._start_dead_block("after.ret")

    # -- expressions: rvalues -------------------------------------------------------

    def rvalue(self, expr: ast.Node) -> Value:
        if isinstance(expr, ast.IntLiteral):
            return IRBuilder.const_int(expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return IRBuilder.const_float(expr.value, F32 if expr.is_single else F64)
        if isinstance(expr, ast.SizeofExpr):
            return IRBuilder.const_int(self.ctx.resolve(expr.target).size())
        if isinstance(expr, ast.Identifier):
            return self._load_or_decay(self.lvalue(expr), expr.line)
        if isinstance(expr, (ast.IndexExpr, ast.MemberExpr)):
            return self._load_or_decay(self.lvalue(expr), expr.line)
        if isinstance(expr, ast.UnaryExpr):
            return self._lower_unary(expr)
        if isinstance(expr, ast.PostfixIncDec):
            return self._lower_incdec(expr.operand, expr.op, post=True, line=expr.line)
        if isinstance(expr, ast.BinaryExpr):
            return self._lower_binary(expr)
        if isinstance(expr, ast.AssignExpr):
            return self._lower_assign(expr)
        if isinstance(expr, ast.ConditionalExpr):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr)
        if isinstance(expr, ast.CastExpr):
            target = self.ctx.resolve(expr.target)
            return self.convert(self.rvalue(expr.operand), target, expr.line, explicit=True)
        raise SemanticError(f"line {expr.line}: cannot lower {type(expr).__name__}")

    def _load_or_decay(self, addr: Value, line: int) -> Value:
        pointee = addr.type.pointee  # type: ignore[union-attr]
        if isinstance(pointee, ArrayType):
            # Array-to-pointer decay: &a[0].
            zero = IRBuilder.const_int(0)
            return self.builder.gep(addr, [zero, zero])
        if isinstance(pointee, StructType):
            raise SemanticError(f"line {line}: struct values are not copyable here")
        return self.builder.load(addr)

    # -- expressions: lvalues --------------------------------------------------------

    def lvalue(self, expr: ast.Node) -> Value:
        if isinstance(expr, ast.Identifier):
            found = self.lookup(expr.name)
            if found is not None:
                return found[0]
            if expr.name in self.module.globals:
                return self.module.globals[expr.name]
            raise SemanticError(f"line {expr.line}: undeclared identifier {expr.name!r}")
        if isinstance(expr, ast.UnaryExpr) and expr.op == "*":
            pointer = self.rvalue(expr.operand)
            if not pointer.type.is_pointer:
                raise SemanticError(f"line {expr.line}: dereference of non-pointer")
            return pointer
        if isinstance(expr, ast.IndexExpr):
            base = self.rvalue(expr.base)  # decays arrays to pointers
            if not base.type.is_pointer:
                raise SemanticError(f"line {expr.line}: subscript of non-pointer")
            index = self._to_int(self.rvalue(expr.index), expr.line)
            return self.builder.gep(base, [index])
        if isinstance(expr, ast.MemberExpr):
            if expr.arrow:
                base = self.rvalue(expr.base)
                if not base.type.is_pointer or not isinstance(
                    base.type.pointee, StructType
                ):
                    raise SemanticError(
                        f"line {expr.line}: '->' on non-struct-pointer"
                    )
                struct = base.type.pointee
            else:
                base = self.lvalue(expr.base)
                if not isinstance(base.type.pointee, StructType):  # type: ignore[union-attr]
                    raise SemanticError(f"line {expr.line}: '.' on non-struct")
                struct = base.type.pointee  # type: ignore[union-attr]
            if struct.is_opaque:
                raise SemanticError(
                    f"line {expr.line}: member access into opaque struct {struct.name}"
                )
            return self.builder.struct_gep(base, struct.field_index(expr.member))
        raise SemanticError(
            f"line {expr.line}: expression is not assignable "
            f"({type(expr).__name__})"
        )

    # -- operators ----------------------------------------------------------------------

    def _lower_unary(self, expr: ast.UnaryExpr) -> Value:
        if expr.op == "*":
            return self._load_or_decay(self.lvalue(expr), expr.line)
        if expr.op == "&":
            return self.lvalue(expr.operand)
        if expr.op in ("++", "--"):
            return self._lower_incdec(expr.operand, expr.op, post=False, line=expr.line)
        value = self.rvalue(expr.operand)
        if expr.op == "-":
            if value.type.is_float:
                return self.builder.fsub(IRBuilder.const_float(0.0, value.type), value)
            value = self._promote_int(value)
            return self.builder.sub(IRBuilder.const_int(0, value.type), value)
        if expr.op == "~":
            value = self._promote_int(value)
            return self.builder.xor(value, IRBuilder.const_int(-1, value.type))
        if expr.op == "!":
            cond = self.as_condition(value)
            return self.builder.xor(cond, IRBuilder.const_bool(True))
        raise SemanticError(f"line {expr.line}: unsupported unary {expr.op!r}")

    def _lower_incdec(self, target: ast.Node, op: str, post: bool, line: int) -> Value:
        addr = self.lvalue(target)
        old = self.builder.load(addr)
        delta = 1 if op == "++" else -1
        if old.type.is_pointer:
            new = self.builder.gep(old, [IRBuilder.const_int(delta)])
        elif old.type.is_float:
            new = self.builder.fadd(old, IRBuilder.const_float(delta, old.type))
        else:
            new = self.builder.add(old, IRBuilder.const_int(delta, old.type))
        self.builder.store(new, addr)
        return old if post else new

    def _lower_binary(self, expr: ast.BinaryExpr) -> Value:
        op = expr.op
        if op == ",":
            self.rvalue(expr.lhs)
            return self.rvalue(expr.rhs)
        if op in ("&&", "||"):
            return self._lower_short_circuit(expr)
        lhs = self.rvalue(expr.lhs)
        rhs = self.rvalue(expr.rhs)
        return self._apply_binary(op, lhs, rhs, expr.line)

    def _apply_binary(self, op: str, lhs: Value, rhs: Value, line: int) -> Value:
        # Pointer arithmetic.
        if op in ("+", "-") and (lhs.type.is_pointer or rhs.type.is_pointer):
            return self._pointer_arith(op, lhs, rhs, line)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._compare(op, lhs, rhs, line)
        lhs, rhs, common = self._usual_conversions(lhs, rhs, line)
        if common.is_float:
            mapping = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
            if op not in mapping:
                raise SemanticError(f"line {line}: {op!r} not valid on floats")
            return self.builder.binop(mapping[op], lhs, rhs)
        mapping = {
            "+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
            "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr",
        }
        if op not in mapping:
            raise SemanticError(f"line {line}: unsupported operator {op!r}")
        return self.builder.binop(mapping[op], lhs, rhs)

    def _pointer_arith(self, op: str, lhs: Value, rhs: Value, line: int) -> Value:
        if lhs.type.is_pointer and rhs.type.is_pointer:
            if op != "-":
                raise SemanticError(f"line {line}: cannot add two pointers")
            elem = lhs.type.pointee  # type: ignore[union-attr]
            li = self.builder.cast("ptrtoint", lhs, I32)
            ri = self.builder.cast("ptrtoint", rhs, I32)
            diff = self.builder.sub(li, ri)
            return self.builder.sdiv(diff, IRBuilder.const_int(elem.size()))
        if rhs.type.is_pointer:  # i + p
            lhs, rhs = rhs, lhs
        index = self._to_int(rhs, line)
        if op == "-":
            index = self.builder.sub(IRBuilder.const_int(0), index)
        return self.builder.gep(lhs, [index])

    def _compare(self, op: str, lhs: Value, rhs: Value, line: int) -> Value:
        pred_map = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}
        if lhs.type.is_pointer or rhs.type.is_pointer:
            ptr_type = lhs.type if lhs.type.is_pointer else rhs.type
            lhs = self._coerce_pointer(lhs, ptr_type, line)
            rhs = self._coerce_pointer(rhs, ptr_type, line)
            pred = pred_map[op].replace("s", "u", 1) if op in ("<", "<=", ">", ">=") else pred_map[op]
            return self.builder.icmp(pred, lhs, rhs)
        lhs, rhs, common = self._usual_conversions(lhs, rhs, line)
        if common.is_float:
            fpred = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole", ">": "ogt", ">=": "oge"}
            return self.builder.fcmp(fpred[op], lhs, rhs)
        return self.builder.icmp(pred_map[op], lhs, rhs)

    def _coerce_pointer(self, value: Value, ptr_type: Type, line: int) -> Value:
        if value.type == ptr_type:
            return value
        if value.type.is_pointer:
            return self.builder.cast("bitcast", value, ptr_type)
        if isinstance(value, Constant) and value.value == 0:
            return IRBuilder.null(ptr_type)
        raise SemanticError(f"line {line}: cannot compare pointer with non-pointer")

    def _lower_short_circuit(self, expr: ast.BinaryExpr) -> Value:
        is_and = expr.op == "&&"
        rhs_block = self.function.new_block("sc.rhs")
        merge = self.function.new_block("sc.end")
        lhs_cond = self.condition(expr.lhs)
        lhs_end = self.builder.block
        if is_and:
            self.builder.cond_branch(lhs_cond, rhs_block, merge)
        else:
            self.builder.cond_branch(lhs_cond, merge, rhs_block)
        self.builder.set_block(rhs_block)
        rhs_cond = self.condition(expr.rhs)
        rhs_end = self.builder.block
        self.builder.jump(merge)
        self.builder.set_block(merge)
        phi = self.builder.phi(BOOL)
        phi.add_incoming(IRBuilder.const_bool(not is_and), lhs_end)
        phi.add_incoming(rhs_cond, rhs_end)
        return phi

    def _lower_conditional(self, expr: ast.ConditionalExpr) -> Value:
        then_block = self.function.new_block("sel.then")
        else_block = self.function.new_block("sel.else")
        merge = self.function.new_block("sel.end")
        self.builder.cond_branch(self.condition(expr.cond), then_block, else_block)
        self.builder.set_block(then_block)
        tv = self.rvalue(expr.if_true)
        then_end = self.builder.block
        self.builder.set_block(else_block)
        fv = self.rvalue(expr.if_false)
        else_end = self.builder.block
        # Unify arm types before the merge so the phi is well-typed.
        if tv.type != fv.type:
            common = _common_type(tv.type, fv.type)
            if common is None:
                raise SemanticError(f"line {expr.line}: incompatible ?: arm types")
            self.builder.set_block(then_end)
            tv = self.convert(tv, common, expr.line)
            then_end = self.builder.block
            self.builder.set_block(else_end)
            fv = self.convert(fv, common, expr.line)
            else_end = self.builder.block
        self.builder.set_block(then_end)
        self.builder.jump(merge)
        self.builder.set_block(else_end)
        self.builder.jump(merge)
        self.builder.set_block(merge)
        phi = self.builder.phi(tv.type)
        phi.add_incoming(tv, then_end)
        phi.add_incoming(fv, else_end)
        return phi

    def _lower_assign(self, expr: ast.AssignExpr) -> Value:
        addr = self.lvalue(expr.lhs)
        target_type = addr.type.pointee  # type: ignore[union-attr]
        if expr.op == "=":
            value = self.convert(self.rvalue(expr.rhs), target_type, expr.line)
        else:
            binop = expr.op[:-1]  # '+=' -> '+'
            old = self.builder.load(addr)
            rhs = self.rvalue(expr.rhs)
            combined = self._apply_binary(binop, old, rhs, expr.line)
            value = self.convert(combined, target_type, expr.line)
        self.builder.store(value, addr)
        return value

    def _lower_call(self, expr: ast.CallExpr) -> Value:
        if expr.name not in self.module.functions:
            raise SemanticError(f"line {expr.line}: call to undeclared {expr.name!r}")
        callee = self.module.get_function(expr.name)
        params = callee.function_type.param_types
        if len(expr.args) != len(params):
            raise SemanticError(
                f"line {expr.line}: {expr.name} expects {len(params)} args, "
                f"got {len(expr.args)}"
            )
        args = [
            self.convert(self.rvalue(a), t, expr.line)
            for a, t in zip(expr.args, params)
        ]
        return self.builder.call(callee, args)

    # -- conversions ------------------------------------------------------------------

    def condition(self, expr: ast.Node) -> Value:
        return self.as_condition(self.rvalue(expr))

    def as_condition(self, value: Value) -> Value:
        if value.type == BOOL:
            return value
        if value.type.is_integer:
            return self.builder.icmp("ne", value, IRBuilder.const_int(0, value.type))
        if value.type.is_float:
            return self.builder.fcmp("one", value, IRBuilder.const_float(0.0, value.type))
        if value.type.is_pointer:
            return self.builder.icmp("ne", value, IRBuilder.null(value.type))
        raise SemanticError(f"cannot use {value.type!r} as a condition")

    def _promote_int(self, value: Value) -> Value:
        """C integer promotion: anything narrower than int becomes int."""
        if isinstance(value.type, IntType) and value.type.bits < 32:
            return self.builder.int_cast(value, I32)
        return value

    def _to_int(self, value: Value, line: int) -> Value:
        if not value.type.is_integer:
            raise SemanticError(f"line {line}: expected an integer")
        return self.builder.int_cast(self._promote_int(value), I32)

    def _usual_conversions(self, lhs: Value, rhs: Value, line: int):
        lhs = self._promote_int(lhs)
        rhs = self._promote_int(rhs)
        common = _common_type(lhs.type, rhs.type)
        if common is None:
            raise SemanticError(
                f"line {line}: incompatible operand types "
                f"{lhs.type!r} and {rhs.type!r}"
            )
        return self.convert(lhs, common, line), self.convert(rhs, common, line), common

    def convert(
        self, value: Value, target: Type, line: int, explicit: bool = False
    ) -> Value:
        """Implicit (or explicit, for casts) conversion to ``target``."""
        source = value.type
        if source == target:
            return value
        if target.is_void:
            return value  # value discarded (cast to void)
        if isinstance(source, IntType) and isinstance(target, IntType):
            return self.builder.int_cast(value, target)
        if isinstance(source, IntType) and isinstance(target, FloatType):
            widened = self._promote_int(value)
            return self.builder.cast("sitofp", widened, target)
        if isinstance(source, FloatType) and isinstance(target, IntType):
            return self.builder.cast("fptosi", value, target)
        if isinstance(source, FloatType) and isinstance(target, FloatType):
            op = "fpext" if target.size() > source.size() else "fptrunc"
            return self.builder.cast(op, value, target)
        if source.is_pointer and target.is_pointer:
            return self.builder.cast("bitcast", value, target)
        if isinstance(source, IntType) and target.is_pointer:
            if isinstance(value, Constant) and value.value == 0:
                return IRBuilder.null(target)
            if explicit:
                return self.builder.cast("inttoptr", value, target)
        if source.is_pointer and isinstance(target, IntType) and explicit:
            return self.builder.cast("ptrtoint", value, target)
        raise SemanticError(
            f"line {line}: cannot convert {source!r} to {target!r}"
        )


def _common_type(a: Type, b: Type) -> Type | None:
    """C usual-arithmetic-conversion result type (or pointer unification)."""
    if a == b:
        return a
    if a.is_pointer and isinstance(b, IntType):
        return a
    if b.is_pointer and isinstance(a, IntType):
        return b
    if isinstance(a, FloatType) or isinstance(b, FloatType):
        fa = a if isinstance(a, FloatType) else None
        fb = b if isinstance(b, FloatType) else None
        if fa and fb:
            return fa if fa.bits >= fb.bits else fb
        if (fa or fb) and (isinstance(a, IntType) or isinstance(b, IntType)):
            return fa or fb
        return None
    if isinstance(a, IntType) and isinstance(b, IntType):
        return a if a.bits >= b.bits else b
    return None


def _zero_of(type_: Type) -> Constant:
    if type_.is_float:
        return Constant(type_, 0.0)
    return Constant(type_, 0)
