"""Program analyses: CFG, dominators, loops, points-to, dependences, PDG."""

from .addr import promotable_allocas
from .cfg import (
    edges,
    exit_blocks,
    reachable_blocks,
    remove_unreachable_blocks,
    reverse_postorder,
)
from .controldep import control_dependence
from .dominators import DominatorTree, dominator_tree, postdominator_tree
from .loops import Loop, LoopInfo
from .memdep import (
    BasicIV,
    DepVerdict,
    LoopMemoryModel,
    basic_induction_variables,
    traversal_phis,
)
from .pdg import DepKind, PDGEdge, ProgramDependenceGraph, SccClass, SccInfo
from .pointsto import EXTERNAL, AbstractObject, ModRefSummary, PointsTo
from .scc import Condensation, condense, tarjan_scc
from .shapes import RegionShapes, Shape, conservative

__all__ = [
    "reverse_postorder", "reachable_blocks", "exit_blocks", "edges",
    "remove_unreachable_blocks", "promotable_allocas",
    "DominatorTree", "dominator_tree", "postdominator_tree",
    "Loop", "LoopInfo",
    "control_dependence",
    "PointsTo", "AbstractObject", "ModRefSummary", "EXTERNAL",
    "RegionShapes", "Shape", "conservative",
    "LoopMemoryModel", "DepVerdict", "BasicIV",
    "basic_induction_variables", "traversal_phis",
    "ProgramDependenceGraph", "PDGEdge", "DepKind", "SccClass", "SccInfo",
    "tarjan_scc", "condense", "Condensation",
]
