"""Dominator and post-dominator trees plus dominance frontiers.

Implements the Cooper–Harvey–Kennedy iterative algorithm.  The
post-dominator tree is computed on the reversed CFG with a virtual exit
joining all ``ret`` blocks (functions can have several).  Dominance
frontiers drive SSA construction; post-dominance drives control-dependence
edges in the PDG (Ferrante–Ottenstein–Warren).
"""

from __future__ import annotations

from ..errors import AnalysisError
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from .cfg import exit_blocks, reverse_postorder


class DominatorTree:
    """Immediate-dominator tree over the reachable blocks of a function."""

    def __init__(self, function: Function, post: bool = False) -> None:
        self.function = function
        self.post = post
        #: Virtual root used for the post-dominator tree (no IR block).
        self.virtual_exit: BasicBlock | None = None
        self._idom: dict[int, BasicBlock] = {}
        self._children: dict[int, list[BasicBlock]] = {}
        self._order_index: dict[int, int] = {}
        self._compute()

    # -- queries ------------------------------------------------------------------

    def idom(self, block: BasicBlock) -> BasicBlock | None:
        """Immediate dominator (or post-dominator) of ``block``."""
        return self._idom.get(id(block))

    def children(self, block: BasicBlock) -> list[BasicBlock]:
        return self._children.get(id(block), [])

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` (post)dominates ``b`` (reflexive)."""
        current: BasicBlock | None = b
        while current is not None:
            if current is a:
                return True
            current = self._idom.get(id(current))
        return False

    def dominance_frontier(self) -> dict[int, list[BasicBlock]]:
        """block id -> frontier blocks (computed on demand, cached)."""
        if not hasattr(self, "_frontier"):
            self._frontier = self._compute_frontier()
        return self._frontier

    # -- construction --------------------------------------------------------------

    def _compute(self) -> None:
        function = self.function
        if self.post:
            exits = exit_blocks(function)
            if not exits:
                raise AnalysisError(
                    f"@{function.name}: no exit blocks for post-dominators"
                )
            self.virtual_exit = BasicBlock("<virtual-exit>")
            order = self._reverse_cfg_rpo(exits)
        else:
            order = reverse_postorder(function)
        self._order = order
        self._order_index = {id(b): i for i, b in enumerate(order)}
        root = order[0]
        idom: dict[int, BasicBlock] = {id(root): root}

        changed = True
        while changed:
            changed = False
            for block in order[1:]:
                preds = self._cfg_preds(block)
                candidates = [p for p in preds if id(p) in idom]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for p in candidates[1:]:
                    new_idom = self._intersect(new_idom, p, idom)
                if idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True

        self._idom = {}
        for block in order[1:]:
            if id(block) in idom:
                self._idom[id(block)] = idom[id(block)]
        self.root = root
        self._children = {}
        for block in order[1:]:
            parent = self._idom.get(id(block))
            if parent is not None:
                self._children.setdefault(id(parent), []).append(block)

    def _reverse_cfg_rpo(self, exits: list[BasicBlock]) -> list[BasicBlock]:
        """RPO of the reversed CFG rooted at the virtual exit."""
        visited: set[int] = {id(self.virtual_exit)}
        order: list[BasicBlock] = []

        def successors_in_reverse(block: BasicBlock) -> list[BasicBlock]:
            if block is self.virtual_exit:
                return exits
            return block.predecessors()

        stack = [(self.virtual_exit, iter(successors_in_reverse(self.virtual_exit)))]
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if id(succ) not in visited:
                    visited.add(id(succ))
                    stack.append((succ, iter(successors_in_reverse(succ))))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()
        order.reverse()
        return order

    def _cfg_preds(self, block: BasicBlock) -> list[BasicBlock]:
        """Predecessors in the graph the tree is computed over."""
        if not self.post:
            return block.predecessors()
        # Reversed CFG: preds of a block are its successors; ret blocks
        # additionally have the virtual exit as their reversed-CFG pred.
        preds = list(block.successors())
        if not preds and self.virtual_exit is not None:
            preds = [self.virtual_exit]
        return preds

    def _intersect(
        self, a: BasicBlock, b: BasicBlock, idom: dict[int, BasicBlock]
    ) -> BasicBlock:
        index = self._order_index
        while a is not b:
            while index[id(a)] > index[id(b)]:
                a = idom[id(a)]
            while index[id(b)] > index[id(a)]:
                b = idom[id(b)]
        return a

    def _compute_frontier(self) -> dict[int, list[BasicBlock]]:
        frontier: dict[int, list[BasicBlock]] = {id(b): [] for b in self._order}
        for block in self._order:
            preds = self._cfg_preds(block)
            if len(preds) < 2:
                continue
            target_idom = self._idom.get(id(block))
            for pred in preds:
                runner = pred
                while runner is not target_idom and id(runner) in frontier:
                    bucket = frontier[id(runner)]
                    if block not in bucket:
                        bucket.append(block)
                    next_runner = self._idom.get(id(runner))
                    if next_runner is None:
                        break
                    runner = next_runner
        return frontier


def dominator_tree(function: Function) -> DominatorTree:
    """Dominator tree of ``function`` (entry-rooted)."""

    return DominatorTree(function, post=False)


def postdominator_tree(function: Function) -> DominatorTree:
    """Post-dominator tree (virtual-exit-rooted)."""

    return DominatorTree(function, post=True)
