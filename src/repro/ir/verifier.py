"""Structural IR verifier.

Checks the invariants every pass relies on: each block is terminated, phi
nodes are grouped at block heads and agree with the predecessor list,
and operand use-lists are consistent.
"""

from __future__ import annotations

from ..errors import IRError
from .basicblock import BasicBlock
from .function import Function
from .instructions import Instruction, Phi
from .module import Module
from .values import Argument, Constant, GlobalVariable, Value


def verify_module(module: Module) -> None:
    """Verify every defined function in the module."""

    for function in module.functions.values():
        if not function.is_declaration:
            verify_function(function)


def verify_function(function: Function) -> None:
    """Check the structural invariants of one function."""

    if not function.blocks:
        raise IRError(f"@{function.name}: function has no blocks")
    block_set = set(map(id, function.blocks))
    defined: set[int] = set()
    for block in function.blocks:
        _verify_block(function, block, block_set)
        for inst in block.instructions:
            defined.add(id(inst))
    _verify_operand_visibility(function, defined)
    _verify_use_lists(function)


def _verify_block(function: Function, block: BasicBlock, block_set: set[int]) -> None:
    where = f"@{function.name}/{block.short_name()}"
    if block.parent is not function:
        raise IRError(f"{where}: block parent pointer is stale")
    if block.terminator is None:
        raise IRError(f"{where}: block is not terminated")
    seen_non_phi = False
    for i, inst in enumerate(block.instructions):
        if inst.parent is not block:
            raise IRError(f"{where}: instruction #{i} has stale parent")
        if inst.is_terminator and i != len(block.instructions) - 1:
            raise IRError(f"{where}: terminator in the middle of the block")
        if isinstance(inst, Phi):
            if seen_non_phi:
                raise IRError(f"{where}: phi after non-phi instruction")
        else:
            seen_non_phi = True
    for succ in block.successors():
        if id(succ) not in block_set:
            raise IRError(f"{where}: branch to block outside the function")
    preds = block.predecessors()
    for phi in block.phis():
        if len(phi.incoming_blocks) != len(phi.operands):
            raise IRError(f"{where}: phi arm count mismatch")
        phi_preds = {id(b) for b in phi.incoming_blocks}
        real_preds = {id(p) for p in preds}
        if phi_preds != real_preds:
            names = sorted(b.short_name() for b in phi.incoming_blocks)
            actual = sorted(p.short_name() for p in preds)
            raise IRError(
                f"{where}: phi predecessors {names} != CFG predecessors {actual}"
            )


def _verify_operand_visibility(function: Function, defined: set[int]) -> None:
    args = {id(a) for a in function.args}
    for block in function.blocks:
        for inst in block.instructions:
            for op in inst.operands:
                if _is_external(op):
                    continue
                if isinstance(op, BasicBlock):
                    continue
                if isinstance(op, Instruction) and id(op) not in defined:
                    raise IRError(
                        f"@{function.name}: {inst.opcode} uses instruction "
                        f"defined in another function"
                    )
                if isinstance(op, Argument) and id(op) not in args:
                    raise IRError(
                        f"@{function.name}: {inst.opcode} uses a foreign argument"
                    )


def _is_external(op: Value) -> bool:
    return isinstance(op, (Constant, GlobalVariable, Function))


def _verify_use_lists(function: Function) -> None:
    for block in function.blocks:
        for inst in block.instructions:
            for op in inst.operands:
                if inst not in op.users:
                    raise IRError(
                        f"@{function.name}: use-list of {op.short_name()} "
                        f"is missing user {inst.opcode}"
                    )
