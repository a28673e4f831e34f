"""Execution profiling (the paper's "simple profiling step").

The profile drives two things: hotspot identification (which loop to
accelerate) and the pipeline partitioner's SCC weights (how many dynamic
instructions each SCC accounts for).  It steps the reference path
(:meth:`Interpreter.step`) and reads off each step what it executed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..errors import InterpError
from ..ir.instructions import CondBranch, Instruction, Jump
from ..ir.module import Module
from .interpreter import BLOCKED_OUTSIDE_SCHEDULER, Interpreter, Status
from .memory import Memory


@dataclass
class Profile:
    """Dynamic execution counts collected by one profiled run."""

    inst_counts: Counter = field(default_factory=Counter)  # id(inst) -> count
    block_counts: Counter = field(default_factory=Counter)  # id(block) -> count
    edge_counts: Counter = field(default_factory=Counter)  # (id(b1), id(b2)) -> count
    return_value: int | float | None = None

    def count(self, inst: Instruction) -> int:
        return self.inst_counts.get(id(inst), 0)


def profile_call(
    module: Module,
    function_name: str,
    args: list[int | float],
    memory: Memory | None = None,
    max_steps: int = 200_000_000,
) -> Profile:
    """Run ``function_name`` under the interpreter, collecting a profile.

    Every executed instruction counts, a taken edge's phis included; a
    block counts when an edge enters it, and the root's entry once.
    """
    profile = Profile()
    insts, blocks, edges = profile.inst_counts, profile.block_counts, profile.edge_counts
    interp = Interpreter(module, memory, max_steps=max_steps)
    interp.start(function_name, args)
    stack = interp._stack
    blocks[id(stack[-1].insts[0].parent)] += 1
    while stack:
        frame = stack[-1]
        inst = frame.insts[frame.index]
        if interp.step() is Status.BLOCKED:
            raise InterpError(BLOCKED_OUTSIDE_SCHEDULER)
        insts[id(inst)] += 1
        if type(inst) is Jump or type(inst) is CondBranch:  # the frame took an edge
            target = frame.insts[0].parent
            edges[(id(inst.parent), id(target))] += 1
            blocks[id(target)] += 1
            for phi in target.phis():
                insts[id(phi)] += 1
    profile.return_value = interp.return_value
    return profile
