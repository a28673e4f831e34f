"""Program dependence graph for one target loop, and SCC classification.

The PDG's nodes are the loop's instructions; edges carry a kind
(register / memory / control) and a *loop-carried* flag.  After SCC
condensation each component is classified exactly as the paper describes
(Section 3.3):

* **parallel** — contains no loop-carried dependence,
* **replicable** — has loop-carried dependences but no side effects (safe
  to execute redundantly in several workers),
* **sequential** — loop-carried dependences plus side effects.

Memory dependences are inserted in *both* directions between conflicting
accesses, which forces aliasing memory instructions into the same SCC —
the behaviour the paper relies on ("CGPA's pipeline partition design
enforces an assignment of aliasing memory instructions to the same stage
(by creating SCCs)", Appendix B.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import AnalysisError
from ..ir.instructions import Call, Instruction, Load, Phi, Store
from ..ir.values import Value
from ..interp.profiler import Profile
from .addr import promotable_allocas
from .controldep import control_dependence
from .loops import Loop
from .memdep import LoopMemoryModel
from .pointsto import PointsTo
from .shapes import RegionShapes
from .scc import Condensation, condense


class DepKind(enum.Enum):
    """PDG edge kind: register, memory, or control dependence."""

    REG = "reg"
    MEM = "mem"
    CONTROL = "control"


@dataclass(frozen=True)
class PDGEdge:
    """One directed dependence edge with its loop-carried flag."""

    src: Instruction
    dst: Instruction
    kind: DepKind
    carried: bool


class SccClass(enum.Enum):
    """The paper's SCC classification: parallel/replicable/sequential."""

    PARALLEL = "parallel"
    REPLICABLE = "replicable"
    SEQUENTIAL = "sequential"


@dataclass
class SccInfo:
    """One condensed PDG component with its classification and weight."""

    index: int
    instructions: list[Instruction]
    classification: SccClass
    weight: int  # dynamic instruction count from the profile (or static)
    has_internal_carried: bool
    has_side_effects: bool

    @property
    def is_parallel(self) -> bool:
        return self.classification is SccClass.PARALLEL

    @property
    def is_replicable(self) -> bool:
        return self.classification is SccClass.REPLICABLE

    @property
    def is_lightweight(self) -> bool:
        """Paper's duplication heuristic: no load / multiply / division / call."""
        return not any(inst.is_heavyweight for inst in self.instructions)


class ProgramDependenceGraph:
    """PDG of one loop plus its condensation and classification.

    The loop's function must be optimised (``optimize_module``): a scalar
    still kept in a stack slot carries its loop dependences through memory
    instead of def-use edges, so its PDG partitions a design other than
    the paper's, without a word; the constructor refuses it instead.
    """

    def __init__(
        self,
        loop: Loop,
        pointsto: PointsTo,
        shapes: RegionShapes | None = None,
        profile: Profile | None = None,
    ) -> None:
        function = loop.header.parent
        slots = promotable_allocas(function)
        if slots:
            names = ", ".join(slot.short_name() for slot in slots)
            raise AnalysisError(
                f"@{function.name} keeps scalars in stack slots ({names}); "
                "run optimize_module on the module before building its PDG"
            )
        self.loop = loop
        self.pointsto = pointsto
        self.shapes = shapes or RegionShapes()
        self.profile = profile
        self.memory_model = LoopMemoryModel(loop, pointsto, self.shapes)
        self.nodes: list[Instruction] = loop.instructions()
        self._node_ids = {id(n) for n in self.nodes}
        self.edges: list[PDGEdge] = []
        self._edge_keys: set[tuple[int, int, DepKind, bool]] = set()
        self._build()
        self.condensation, self.sccs = self._condense_and_classify()

    # -- construction ---------------------------------------------------------

    def _add_edge(self, src: Instruction, dst: Instruction, kind: DepKind, carried: bool) -> None:
        key = (id(src), id(dst), kind, carried)
        if key in self._edge_keys:
            return
        self._edge_keys.add(key)
        self.edges.append(PDGEdge(src, dst, kind, carried))

    def _build(self) -> None:
        self._add_register_edges()
        self._add_phi_select_edges()
        self._add_control_edges()
        self._add_memory_edges()

    def _add_register_edges(self) -> None:
        loop = self.loop
        latch_ids = {id(l) for l in loop.latches()}
        for inst in self.nodes:
            if isinstance(inst, Phi) and inst.parent is loop.header:
                for value, pred in inst.incoming():
                    if id(pred) in latch_ids and isinstance(value, Instruction):
                        if id(value) in self._node_ids:
                            self._add_edge(value, inst, DepKind.REG, carried=True)
                continue
            for op in inst.operands:
                if isinstance(op, Instruction) and id(op) in self._node_ids:
                    self._add_edge(op, inst, DepKind.REG, carried=False)

    def _add_phi_select_edges(self) -> None:
        """A phi *selects* among arms based on which predecessor ran, so it
        depends on the terminators of its incoming blocks.  Without these
        edges a replicated phi could be separated from the branch that
        steers it."""
        loop = self.loop
        latch_ids = {id(l) for l in loop.latches()}
        for inst in self.nodes:
            if not isinstance(inst, Phi):
                continue
            for _, pred in inst.incoming():
                if not loop.contains_block(pred):
                    continue
                term = pred.terminator
                if term is None or id(term) not in self._node_ids:
                    continue
                carried = inst.parent is loop.header and id(pred) in latch_ids
                self._add_edge(term, inst, DepKind.CONTROL, carried=carried)

    def _add_control_edges(self) -> None:
        loop = self.loop
        function = loop.header.parent
        assert function is not None
        cd = control_dependence(function)
        for block in loop.blocks:
            controlling = cd.get(id(block), [])
            for ctrl_block in controlling:
                if not loop.contains_block(ctrl_block):
                    continue
                branch = ctrl_block.terminator
                if branch is None:
                    continue
                for inst in block.instructions:
                    if inst is branch:
                        continue
                    self._add_edge(branch, inst, DepKind.CONTROL, carried=False)
        # Loop-carried control: whether iteration i+1 runs at all depends on
        # every exit branch of iteration i.
        for exiting in loop.exiting_blocks():
            branch = exiting.terminator
            if branch is None:
                continue
            for inst in self.nodes:
                self._add_edge(branch, inst, DepKind.CONTROL, carried=True)

    def _memory_instructions(self) -> list[Instruction]:
        result = []
        for inst in self.nodes:
            if isinstance(inst, (Load, Store)):
                result.append(inst)
            elif isinstance(inst, Call):
                if self.pointsto.call_mod(inst) or self.pointsto.call_ref(inst):
                    result.append(inst)
        return result

    def _add_memory_edges(self) -> None:
        mem = self._memory_instructions()
        for i, a in enumerate(mem):
            for b in mem[i:]:
                verdict = self.memory_model.dependence(a, b)
                if a is b:
                    if verdict.carried:
                        self._add_edge(a, a, DepKind.MEM, carried=True)
                    continue
                if verdict.intra:
                    self._add_edge(a, b, DepKind.MEM, carried=False)
                    self._add_edge(b, a, DepKind.MEM, carried=False)
                if verdict.carried:
                    self._add_edge(a, b, DepKind.MEM, carried=True)
                    self._add_edge(b, a, DepKind.MEM, carried=True)

    # -- condensation and classification --------------------------------------------

    def _condense_and_classify(self) -> tuple[Condensation, list[SccInfo]]:
        edge_tuples = [
            (id(e.src), id(e.dst), e.carried) for e in self.edges
        ]
        condensation = condense([id(n) for n in self.nodes], edge_tuples)
        by_id = {id(n): n for n in self.nodes}

        # Internal carried edges per component.
        internal_carried: set[int] = set()
        for e in self.edges:
            cs = condensation.component_of[id(e.src)]
            cd = condensation.component_of[id(e.dst)]
            if cs == cd and e.carried:
                internal_carried.add(cs)

        sccs: list[SccInfo] = []
        for index, comp in enumerate(condensation.components):
            instructions = [by_id[n] for n in comp]
            carried = index in internal_carried
            side_effects = any(
                self._blocks_replication(inst) for inst in instructions
            )
            if not carried:
                cls = SccClass.PARALLEL
            elif not side_effects:
                cls = SccClass.REPLICABLE
            else:
                cls = SccClass.SEQUENTIAL
            weight = self._weight(instructions)
            sccs.append(
                SccInfo(
                    index=index,
                    instructions=instructions,
                    classification=cls,
                    weight=weight,
                    has_internal_carried=carried,
                    has_side_effects=side_effects,
                )
            )
        return condensation, sccs

    def _blocks_replication(self, inst: Instruction) -> bool:
        """Side effects that make redundant execution unsafe.

        Branches are excluded: loop control is duplicated into every task
        anyway (control-equivalence).  Calls count as side-effecting when
        their mod set is non-empty.
        """
        if isinstance(inst, Store):
            return True
        if isinstance(inst, Call):
            return bool(self.pointsto.call_mod(inst))
        if inst.is_terminator:
            return False
        return inst.has_side_effects

    def _weight(self, instructions: list[Instruction]) -> int:
        if self.profile is None:
            return len(instructions)
        total = 0
        for inst in instructions:
            total += max(self.profile.count(inst), 0)
        return total if total else len(instructions)

    # -- queries ------------------------------------------------------------------

    def scc_of(self, inst: Instruction) -> SccInfo:
        return self.sccs[self.condensation.component_of[id(inst)]]

    def summary(self) -> dict[str, int]:
        counts = {"parallel": 0, "replicable": 0, "sequential": 0}
        for scc in self.sccs:
            counts[scc.classification.value] += 1
        return counts
