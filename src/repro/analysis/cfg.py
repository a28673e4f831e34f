"""Control-flow-graph utilities: orders, reachability, edge queries."""

from __future__ import annotations

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import erase_all


def reverse_postorder(function: Function) -> list[BasicBlock]:
    """Blocks in reverse postorder from the entry (dominance-friendly)."""
    visited: set[int] = set()
    order: list[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(id(block))
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if id(succ) not in visited:
                    visited.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(function.entry)
    order.reverse()
    return order


def reachable_blocks(function: Function) -> set[int]:
    """ids of blocks reachable from the entry."""
    return {id(b) for b in reverse_postorder(function)}


def exit_blocks(function: Function) -> list[BasicBlock]:
    """Blocks whose terminator leaves the function (ret)."""
    return [b for b in function.blocks if not b.successors() and b.terminator is not None]


def edges(function: Function) -> list[tuple[BasicBlock, BasicBlock]]:
    """All CFG edges of the function as (src, dst) pairs."""

    out: list[tuple[BasicBlock, BasicBlock]] = []
    for block in function.blocks:
        for succ in block.successors():
            out.append((block, succ))
    return out


def remove_unreachable_blocks(function: Function) -> int:
    """Delete blocks not reachable from the entry; returns how many.

    Phi nodes in surviving blocks lose the incoming arms that arrived from
    deleted blocks.
    """
    reachable = reachable_blocks(function)
    dead = [b for b in function.blocks if id(b) not in reachable]
    if not dead:
        return 0
    dead_ids = {id(b) for b in dead}
    # Drop phi arms that come from dead blocks.
    for block in function.blocks:
        if id(block) in dead_ids:
            continue
        for phi in block.phis():
            for pred in list(phi.incoming_blocks):
                if id(pred) in dead_ids:
                    phi.remove_incoming(pred)
    # Their instructions may use each other, but nothing live uses them.
    erase_all(inst for block in dead for inst in block.instructions)
    for block in dead:
        function.remove_block(block)
    return len(dead)
