"""SSA construction: promote scalar ``alloca`` slots to registers.

Standard algorithm: place phi nodes at the iterated dominance frontier of
every store, then rename along a dominator-tree walk.  After this pass the
frontend's load/store-per-variable code becomes proper SSA, which is what
the PDG and the pipeline transform operate on (register dependences become
visible def-use edges instead of memory traffic).

Loads that can execute before any store see a zero of the slot's type —
deterministic stand-in for C's undefined uninitialised locals.
"""

from __future__ import annotations

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Alloca, Load, Phi, Store, erase_all
from ..ir.types import FloatType
from ..ir.values import Constant, Value
from ..analysis.addr import promotable_allocas
from ..analysis.dominators import dominator_tree


def promote_allocas(function: Function) -> int:
    """Run mem2reg on ``function``; returns the number of promoted slots.

    A function with nothing to promote costs one scan of its entry block:
    the dominator tree is built only when there is a slot to rename."""
    allocas = promotable_allocas(function)
    if not allocas:
        return 0

    domtree = dominator_tree(function)
    frontier = domtree.dominance_frontier()

    # 1. Phi placement at the iterated dominance frontier of each store.
    phi_owner: dict[int, Alloca] = {}  # id(phi) -> alloca it merges
    for alloca in allocas:
        def_blocks = {
            id(user.parent): user.parent
            for user in alloca.users
            if isinstance(user, Store) and user.parent is not None
        }
        placed: set[int] = set()
        work = list(def_blocks.values())
        while work:
            block = work.pop()
            for front in frontier.get(id(block), []):
                if id(front) in placed:
                    continue
                placed.add(id(front))
                phi = Phi(alloca.allocated_type, alloca.name)
                front.insert(0, phi)
                phi_owner[id(phi)] = alloca
                if id(front) not in def_blocks:
                    def_blocks[id(front)] = front
                    work.append(front)

    # 2. Renaming along the dominator tree.
    alloca_ids = {id(a) for a in allocas}
    current: dict[int, Value] = {}

    def default_value(alloca: Alloca) -> Value:
        t = alloca.allocated_type
        if isinstance(t, FloatType):
            return Constant(t, 0.0)
        return Constant(t, 0)

    def rename(block: BasicBlock, incoming: dict[int, Value]) -> None:
        local = dict(incoming)
        promoted = []
        for inst in block.instructions:
            if isinstance(inst, Phi) and id(inst) in phi_owner:
                local[id(phi_owner[id(inst)])] = inst
            elif isinstance(inst, Load) and id(inst.pointer) in alloca_ids:
                alloca = inst.pointer
                value = local.get(id(alloca))
                if value is None:
                    value = default_value(alloca)  # type: ignore[arg-type]
                inst.replace_all_uses_with(value)
                promoted.append(inst)
            elif isinstance(inst, Store) and id(inst.pointer) in alloca_ids:
                local[id(inst.pointer)] = inst.value
                promoted.append(inst)
        erase_all(promoted)
        # Fill phi arms in successors.
        for succ in block.successors():
            for phi in succ.phis():
                owner = phi_owner.get(id(phi))
                if owner is None:
                    continue
                value = local.get(id(owner))
                if value is None:
                    value = default_value(owner)
                phi.add_incoming(value, block)
        for child in domtree.children(block):
            rename(child, local)

    rename(function.entry, current)

    # 3. Remove the dead slots and prune degenerate phis.
    for alloca in allocas:
        if not alloca.users:
            alloca.erase()
    _prune_trivial_phis(function, set(phi_owner))
    return len(allocas)


def _prune_trivial_phis(function: Function, placed: set[int]) -> None:
    """Remove phis whose arms are all the same value (or self-references)."""
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for phi in list(block.phis()):
                if id(phi) not in placed:
                    continue
                distinct = {
                    id(v) for v in phi.operands if v is not phi
                }
                values = [v for v in phi.operands if v is not phi]
                if len(distinct) == 1:
                    phi.replace_all_uses_with(values[0])
                    phi.erase()
                    changed = True
                elif not phi.users:
                    phi.erase()
                    changed = True
