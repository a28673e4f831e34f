"""Natural-loop detection and loop structure queries.

A loop is identified by a back edge ``latch -> header`` where the header
dominates the latch; its body is every block that can reach the latch
without passing through the header.  CGPA targets one loop at a time, so
:class:`Loop` carries the queries the partitioner and transformer need:
exits, live-ins, live-outs, and the loop-exit branch.
"""

from __future__ import annotations

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction, Phi
from ..ir.values import Argument, Constant, GlobalVariable, Value
from .dominators import DominatorTree, dominator_tree


class Loop:
    """One natural loop."""

    def __init__(self, header: BasicBlock, blocks: list[BasicBlock]) -> None:
        self.header = header
        self.blocks = blocks  # includes header, deterministic order
        self._block_ids = {id(b) for b in blocks}
        self.parent: "Loop | None" = None
        self.children: list["Loop"] = []

    # -- membership -----------------------------------------------------------

    def contains_block(self, block: BasicBlock) -> bool:
        return id(block) in self._block_ids

    def contains(self, inst: Instruction) -> bool:
        return inst.parent is not None and self.contains_block(inst.parent)

    @property
    def depth(self) -> int:
        depth = 0
        current = self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    # -- structure ---------------------------------------------------------------

    def latches(self) -> list[BasicBlock]:
        return [p for p in self.header.predecessors() if self.contains_block(p)]

    def exit_edges(self) -> list[tuple[BasicBlock, BasicBlock]]:
        """(inside, outside) CFG edges leaving the loop."""
        out: list[tuple[BasicBlock, BasicBlock]] = []
        for block in self.blocks:
            for succ in block.successors():
                if not self.contains_block(succ):
                    out.append((block, succ))
        return out

    def exiting_blocks(self) -> list[BasicBlock]:
        seen: set[int] = set()
        result = []
        for inside, _ in self.exit_edges():
            if id(inside) not in seen:
                seen.add(id(inside))
                result.append(inside)
        return result

    def exit_blocks(self) -> list[BasicBlock]:
        seen: set[int] = set()
        result = []
        for _, outside in self.exit_edges():
            if id(outside) not in seen:
                seen.add(id(outside))
                result.append(outside)
        return result

    def instructions(self) -> list[Instruction]:
        out: list[Instruction] = []
        for block in self.blocks:
            out.extend(block.instructions)
        return out

    def header_phis(self) -> list[Phi]:
        return self.header.phis()

    # -- dataflow across the boundary ------------------------------------------------

    def live_ins(self) -> list[Value]:
        """Values defined outside the loop but used inside.

        Includes function arguments; constants and globals are excluded
        (they need no communication — globals are addresses known to every
        worker, matching the paper's live-in register passing).
        """
        result: list[Value] = []
        seen: set[int] = set()
        for inst in self.instructions():
            operands = list(inst.operands)
            if isinstance(inst, Phi) and inst.parent is self.header:
                # Only the value flowing in from outside is a live-in.
                operands = [
                    v
                    for v, pred in inst.incoming()
                    if not self.contains_block(pred)
                ]
            for op in operands:
                if isinstance(op, (Constant, GlobalVariable, BasicBlock)):
                    continue
                if isinstance(op, Instruction) and self.contains(op):
                    continue
                if isinstance(op, (Instruction, Argument)) and id(op) not in seen:
                    seen.add(id(op))
                    result.append(op)
        return result

    def live_outs(self) -> list[Instruction]:
        """Instructions defined inside the loop and used after it."""
        result: list[Instruction] = []
        seen: set[int] = set()
        for inst in self.instructions():
            for user in inst.users:
                if isinstance(user, Instruction) and not self.contains(user):
                    if id(inst) not in seen:
                        seen.add(id(inst))
                        result.append(inst)
                    break
        return result

    def __repr__(self) -> str:
        return f"<Loop header={self.header.short_name()} blocks={len(self.blocks)}>"


class LoopInfo:
    """All natural loops of a function, with the nesting forest."""

    def __init__(self, function: Function, domtree: DominatorTree | None = None) -> None:
        self.function = function
        self.domtree = domtree or dominator_tree(function)
        self.loops: list[Loop] = []
        self._discover()

    def _discover(self) -> None:
        # Find back edges; group by header (a header can have two latches,
        # e.g. from 'continue').
        bodies: dict[int, tuple[BasicBlock, set[int], list[BasicBlock]]] = {}
        for block in self.function.blocks:
            for succ in block.successors():
                if self.domtree.dominates(succ, block):
                    header = succ
                    entry = bodies.setdefault(id(header), (header, set(), []))
                    self._collect_body(header, block, entry[1], entry[2])
        for header, _, blocks in bodies.values():
            ordered = [header] + [b for b in blocks if b is not header]
            self.loops.append(Loop(header, ordered))
        self._build_nesting()

    def _collect_body(
        self,
        header: BasicBlock,
        latch: BasicBlock,
        body_ids: set[int],
        body: list[BasicBlock],
    ) -> None:
        if id(header) not in body_ids:
            body_ids.add(id(header))
            body.append(header)
        stack = [latch]
        while stack:
            block = stack.pop()
            if id(block) in body_ids:
                continue
            body_ids.add(id(block))
            body.append(block)
            stack.extend(block.predecessors())

    def _build_nesting(self) -> None:
        # Sort by body size: a loop's parent is the smallest strictly
        # containing loop.
        by_size = sorted(self.loops, key=lambda loop: len(loop.blocks))
        for i, inner in enumerate(by_size):
            for outer in by_size[i + 1 :]:
                if len(outer.blocks) > len(inner.blocks) and outer.contains_block(
                    inner.header
                ):
                    inner.parent = outer
                    outer.children.append(inner)
                    break

    def top_level(self) -> list[Loop]:
        return [loop for loop in self.loops if loop.parent is None]

    def loop_of_block(self, block: BasicBlock) -> Loop | None:
        """The innermost loop containing ``block``."""
        best: Loop | None = None
        for loop in self.loops:
            if loop.contains_block(block):
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best
