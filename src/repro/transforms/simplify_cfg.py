"""CFG simplification: fold constant branches, thread empty blocks, merge
straight-line chains, drop unreachable blocks.

The frontend generates many single-jump blocks (dead blocks after
``return``, empty merge blocks); cleaning them up keeps the PDG small and
the generated FSMs free of empty states.
"""

from __future__ import annotations

from ..analysis.cfg import remove_unreachable_blocks
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import CondBranch, Jump, Phi
from ..ir.values import Constant


def simplify_cfg(function: Function) -> int:
    """Run simplifications to a fixed point; returns a change count."""
    total = 0
    changed = True
    while changed:
        changed = False
        changed |= _fold_constant_branches(function) > 0
        changed |= remove_unreachable_blocks(function) > 0
        changed |= _skip_empty_blocks(function) > 0
        changed |= _merge_chains(function) > 0
        if changed:
            total += 1
    return total


def _fold_constant_branches(function: Function) -> int:
    count = 0
    for block in function.blocks:
        term = block.terminator
        if not isinstance(term, CondBranch):
            continue
        if isinstance(term.cond, Constant):
            taken = term.if_true if term.cond.value else term.if_false
            skipped = term.if_false if term.cond.value else term.if_true
            if skipped is not taken:
                for phi in skipped.phis():
                    phi.remove_incoming(block)
            term.erase()
            block.append(Jump(taken))
            count += 1
        elif term.if_true is term.if_false:
            target = term.if_true
            term.erase()
            block.append(Jump(target))
            count += 1
    return count


def _skip_empty_blocks(function: Function) -> int:
    """Rewire branches around blocks that only jump elsewhere."""
    count = 0
    for block in list(function.blocks):
        if block is function.entry:
            continue
        if len(block.instructions) != 1:
            continue
        term = block.terminator
        if not isinstance(term, Jump):
            continue
        target = term.target
        if target is block:
            continue
        # A phi in the target distinguishing this block from our preds
        # blocks the rewrite unless every pred contributes the same value.
        preds = block.predecessors()
        if not preds:
            continue
        if target.phis():
            if not _can_retarget_phis(block, preds, target):
                continue
            for phi in target.phis():
                value = phi.incoming_for(block)
                phi.remove_incoming(block)
                for pred in preds:
                    phi.add_incoming(value, pred)
        for pred in preds:
            pred.terminator.replace_operand(block, target)  # type: ignore[union-attr]
        term.erase()
        function.remove_block(block)
        count += 1
    return count


def _can_retarget_phis(
    block: BasicBlock, preds: list[BasicBlock], target: BasicBlock
) -> bool:
    for pred in preds:
        for succ in pred.successors():
            if succ is target:
                # pred already reaches target directly; retargeting would
                # create a duplicate edge with ambiguous phi arms.
                return False
    return True


def _merge_chains(function: Function) -> int:
    """Merge ``a -> b`` when a jumps only to b and b has no other preds."""
    count = 0
    changed = True
    while changed:
        changed = False
        for block in list(function.blocks):
            term = block.terminator
            if not isinstance(term, Jump):
                continue
            succ = term.target
            if succ is function.entry or succ is block:
                continue
            preds = succ.predecessors()
            if len(preds) != 1 or preds[0] is not block:
                continue
            if succ.phis():
                for phi in list(succ.phis()):
                    phi.replace_all_uses_with(phi.incoming_for(block))
                    phi.erase()
            term.erase()
            for inst in succ.instructions:
                inst.parent = block
            block.instructions += succ.instructions
            succ.instructions = []
            # Successor blocks' phis must now name `block` as their pred.
            for far in block.successors():
                for phi in far.phis():
                    phi.replace_incoming_block(succ, block)
            function.remove_block(succ)
            succ.replace_all_uses_with(block)
            changed = True
            count += 1
    return count
