"""Pipeline specification datatypes.

The partitioner (:mod:`repro.pipeline.partition`) produces a
:class:`PipelineSpec`; the transformer (:mod:`repro.pipeline.transform`)
consumes it to generate task functions; the RTL backend and the hardware
simulator consume the generated tasks plus the spec's channel plan.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..analysis.loops import Loop
from ..analysis.pdg import ProgramDependenceGraph, SccInfo
from ..ir.instructions import Instruction
from ..ir.primitives import DEFAULT_FIFO_DEPTH

#: Paper Section 4.1: four workers in the parallel stage.
DEFAULT_PARALLEL_WORKERS = 4


class StageKind(enum.Enum):
    """Pipeline stage flavour: sequential (one worker) or parallel."""

    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"


class ReplicationPolicy(enum.Enum):
    """Where replicable sections go (the P1 / P2 knob of Tables 2-3).

    * ``P1`` — the paper's default heuristic: duplicate only *lightweight*
      replicable sections (no load / multiply); heavyweight ones become
      sequential stages.
    * ``P2`` — force-duplicate every replicable section into the parallel
      stage (the replicated data-level parallelism variant evaluated for
      em3d and 1D-Gaussblur).
    * ``NONE`` — never duplicate (every replicable section is sequential);
      used by ablation benchmarks.
    """

    P1 = "p1"
    P2 = "p2"
    NONE = "none"


@dataclass
class StageSpec:
    """One pipeline stage: the SCCs it owns plus stage shape."""

    index: int
    kind: StageKind
    n_workers: int
    sccs: list[SccInfo] = field(default_factory=list)

    @property
    def is_parallel(self) -> bool:
        return self.kind is StageKind.PARALLEL

    def owned_instructions(self) -> list[Instruction]:
        out: list[Instruction] = []
        for scc in self.sccs:
            out.extend(scc.instructions)
        return out

    @property
    def weight(self) -> int:
        return sum(scc.weight for scc in self.sccs)

    @property
    def letter(self) -> str:
        return "P" if self.is_parallel else "S"


@dataclass
class PipelineSpec:
    """Complete partition of one loop into pipeline stages."""

    loop: Loop
    pdg: ProgramDependenceGraph
    stages: list[StageSpec]
    #: SCCs duplicated into every stage that needs their values (and into
    #: every parallel worker's both loop bodies).
    replicated: list[SccInfo] = field(default_factory=list)
    policy: ReplicationPolicy = ReplicationPolicy.P1

    @property
    def signature(self) -> str:
        """Stage shape string as in Table 2: "S-P-S", "S-P", "P-S", "P".

        .. deprecated:: retained for the Table-2 comparisons; it is
           *ambiguous* as a configuration label ("S-P" says nothing about
           the replication policy, worker count or FIFO depth that
           produced it).  Cache keys and sweep labels must use
           :meth:`full_signature` instead.
        """
        return "-".join(stage.letter for stage in self.stages)

    def full_signature(self, fifo_depth: int = DEFAULT_FIFO_DEPTH) -> str:
        """Unambiguous configuration label: shape + policy + workers + depth.

        E.g. ``"S-P-S/p1/w4/d16"``.  Unlike :attr:`signature`, two
        different configurations can never collide, which is what the
        design-space explorer's report labels require.  The partition
        knows nothing of FIFO depth: ``fifo_depth`` is the depth the
        caller instantiated (or will instantiate) the accelerator with.
        """
        parallel = self.parallel_stage
        workers = parallel.n_workers if parallel is not None else 1
        return f"{self.signature}/{self.policy.value}/w{workers}/d{fifo_depth}"

    @property
    def parallel_stage(self) -> StageSpec | None:
        for stage in self.stages:
            if stage.is_parallel:
                return stage
        return None

    def is_replicated(self, inst: Instruction) -> bool:
        scc = self.pdg.scc_of(inst)
        return any(s.index == scc.index for s in self.replicated)

    def describe(self) -> str:
        lines = [f"pipeline {self.signature} ({self.policy.value})"]
        for stage in self.stages:
            insts = sum(len(s.instructions) for s in stage.sccs)
            lines.append(
                f"  stage {stage.index}: {stage.kind.value} x{stage.n_workers}, "
                f"{len(stage.sccs)} SCCs, {insts} insts, weight {stage.weight}"
            )
        if self.replicated:
            insts = sum(len(s.instructions) for s in self.replicated)
            lines.append(f"  replicated: {len(self.replicated)} SCCs, {insts} insts")
        return "\n".join(lines)
