"""End-to-end CGPA compilation driver (Figure 3's "Transformation" box).

``cgpa_compile`` takes an optimised module, picks the target loop (the
first top-level loop of the kernel function, or the hottest one when a
training profile is supplied), builds the PDG, partitions, and transforms
— returning everything downstream layers (RTL backend, hardware
simulator, benchmarks) need.  Parsing, optimising and profiling belong to
the caller (:func:`repro.harness.build.compile_kernel` spells the whole
flow); the PDG refuses a module that was not optimised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from ..analysis.loops import Loop, LoopInfo
from ..analysis.pdg import ProgramDependenceGraph
from ..analysis.pointsto import PointsTo
from ..analysis.shapes import RegionShapes
from ..errors import CgpaError
from ..interp import Profile
from ..ir.module import Module
from ..ir.primitives import DEFAULT_FIFO_DEPTH
from ..ir.printer import print_module
from .partition import partition_loop
from .spec import DEFAULT_PARALLEL_WORKERS, PipelineSpec, ReplicationPolicy
from .transform import TransformResult, transform_loop


@dataclass
class CompiledPipeline:
    """The output of one CGPA compilation."""

    module: Module
    kernel_name: str
    loop: Loop
    pdg: ProgramDependenceGraph
    spec: PipelineSpec
    result: TransformResult
    profile: Profile | None

    @property
    def signature(self) -> str:
        return self.spec.signature

    def full_signature(self, depth: int = DEFAULT_FIFO_DEPTH) -> str:
        """Unambiguous label (shape/policy/workers/``depth`` run with)."""
        return self.spec.full_signature(depth)

    @cached_property
    def design_key(self) -> str:
        """sha256 of everything a run, its area and its power read off
        this pipeline: the module text, the wrapper's name, the channel
        plan and each stage's task, kind and worker count.  The policy is
        not in it, so knob settings that compile to one design share it."""
        # Imported here: OpenSSL's libcrypto costs ~3 MiB of RSS in a
        # process that only compiles.
        import hashlib

        design = [
            print_module(self.module),
            self.result.parent.name,
            [[channel.channel_id, channel.name, channel.n_channels,
              repr(channel.elem_type)] for channel in self.result.channels],
            [[task.name, stage.kind.value, stage.n_workers]
             for task, stage in zip(self.result.tasks, self.spec.stages)],
        ]
        return hashlib.sha256(json.dumps(design).encode()).hexdigest()


def cgpa_compile(
    module: Module,
    kernel: str,
    shapes: RegionShapes | None = None,
    policy: ReplicationPolicy = ReplicationPolicy.P1,
    n_workers: int = DEFAULT_PARALLEL_WORKERS,
    profile: Profile | None = None,
    rewrite_parent: bool = True,
) -> CompiledPipeline:
    """Compile one loop of ``kernel`` into a CGPA pipeline.

    Args:
        module: an optimised module (``optimize_module``); rewritten in
            place unless ``rewrite_parent`` is False.
        kernel: function whose loop is accelerated.
        shapes: region shape facts (default: fully conservative).
        policy: replicable-section placement (P1 / P2 / NONE).
        n_workers: parallel-stage worker count (paper default 4).
        profile: optional training run (``profile_call``) for SCC weights
            and hottest-loop selection; without one the first top-level
            loop is taken.
    """
    loops = _top_level_loops(module, kernel)
    if profile is None:
        loop = loops[0]
    else:
        # Hotspot identification: heaviest top-level loop by dynamic count.
        loop = max(
            loops, key=lambda l: sum(profile.count(i) for i in l.instructions())
        )
    [compiled] = _compile_loops(
        module, kernel, [(0, loop)], shapes, policy, n_workers, profile,
        rewrite_parent,
    )
    return compiled


def cgpa_compile_all(
    module: Module,
    kernel: str,
    shapes: RegionShapes | None = None,
    policy: ReplicationPolicy = ReplicationPolicy.P1,
    n_workers: int = DEFAULT_PARALLEL_WORKERS,
) -> list[CompiledPipeline]:
    """Accelerate *every* top-level loop of ``kernel`` (optimised module).

    Each loop gets its own pipeline with a distinct loop id, exactly the
    situation the paper's scheduling constraint (2) exists for: the
    parent invokes several accelerators, and forks of different loops
    must not share an FSM state.  Loops are processed in reverse program
    order so earlier rewrites don't invalidate later loop structures.
    """
    # Discover all loops up front; rewrite from the last to the first so
    # header identities of not-yet-processed loops stay intact.
    loops = list(enumerate(_top_level_loops(module, kernel)))
    compiled = _compile_loops(
        module, kernel, loops[::-1], shapes, policy, n_workers, None, True
    )
    return compiled[::-1]


def _top_level_loops(module: Module, kernel: str) -> list[Loop]:
    loops = LoopInfo(module.get_function(kernel)).top_level()
    if not loops:
        raise CgpaError(f"@{kernel} has no loops to accelerate")
    return loops


def _compile_loops(
    module: Module,
    kernel: str,
    targets: list[tuple[int, Loop]],
    shapes: RegionShapes | None,
    policy: ReplicationPolicy,
    n_workers: int,
    profile: Profile | None,
    rewrite_parent: bool,
) -> list[CompiledPipeline]:
    """PDG -> partition -> transform for each ``(loop_id, loop)`` in turn."""
    pointsto = PointsTo(module)
    compiled = []
    for loop_id, loop in targets:
        pdg = ProgramDependenceGraph(loop, pointsto, shapes, profile)
        spec = partition_loop(pdg, n_workers=n_workers, policy=policy)
        result = transform_loop(
            module, spec, loop_id=loop_id, rewrite_parent=rewrite_parent
        )
        compiled.append(
            CompiledPipeline(module, kernel, loop, pdg, spec, result, profile)
        )
    return compiled
