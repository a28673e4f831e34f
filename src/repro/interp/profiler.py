"""Execution profiling (the paper's "simple profiling step").

The profile drives two things: hotspot identification (which loop to
accelerate) and the pipeline partitioner's SCC weights (how many dynamic
instructions each SCC accounts for).  The run renders a counter into
every edge and every call of the functions it runs, the way the MIPS
baseline renders its cycle costs; a block runs each of its non-phi
instructions once per entry and each of its phis once per incoming edge,
so those counters are the whole profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..ir.instructions import Instruction, Phi
from ..ir.module import Module
from .interpreter import Interpreter
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
    counted: list = []
    interp = Interpreter(module, memory, max_steps=max_steps, counted=counted)
    profile = Profile(return_value=interp.call(function_name, args))
    insts, blocks, edges = profile.inst_counts, profile.block_counts, profile.edge_counts
    root = module.get_function(function_name).entry
    blocks[id(root)] += 1
    entries = Counter({root: 1})
    for i, n in interp.counts.items():
        key = counted[i]
        if type(key) is tuple:  # an edge, which also runs its target's phis
            source, target = key
            edges[(id(source), id(target))] += n
            blocks[id(target)] += n
            for phi in target.phis():
                insts[id(phi)] += n
            key = target
        entries[key] += n
    for block, n in entries.items():
        for inst in block.instructions:
            if type(inst) is not Phi:
                insts[id(inst)] += n
    return profile
