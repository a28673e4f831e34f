"""Aggressive dead-code elimination (mark and sweep).

Roots are instructions whose effects are observable: terminators, stores,
calls and CGPA primitives.  Everything else is live only if a live
instruction (transitively) uses it.  Mark-and-sweep removes *webs* of dead
code — in particular the mutually-referencing phi cycles that SSA
construction can leave behind when a variable is dead across iterations.
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import Call, Instruction, erase_all


def eliminate_dead_code(function: Function) -> int:
    """Remove instructions not reachable from observable roots."""
    live: set[int] = set()
    work: list[Instruction] = []

    for block in function.blocks:
        for inst in block.instructions:
            if inst.is_terminator or inst.has_side_effects or isinstance(inst, Call):
                live.add(id(inst))
                work.append(inst)

    while work:
        inst = work.pop()
        for op in inst.operands:
            if isinstance(op, Instruction) and id(op) not in live:
                live.add(id(op))
                work.append(op)

    dead = [
        inst
        for block in function.blocks
        for inst in block.instructions
        if id(inst) not in live
    ]
    erase_all(dead)
    return len(dead)
