"""End-to-end CGPA compilation driver (Figure 3's "Transformation" box).

``cgpa_compile`` takes C source (or an already-lowered module), runs the
standard optimizations, picks the target loop (hottest top-level loop of
the kernel function, via profiling when an input is supplied), builds the
PDG, partitions, and transforms — returning everything downstream layers
(RTL backend, hardware simulator, benchmarks) need.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.loops import Loop, LoopInfo
from ..analysis.pdg import ProgramDependenceGraph
from ..analysis.pointsto import PointsTo
from ..analysis.shapes import RegionShapes
from ..errors import CgpaError
from ..frontend import compile_c
from ..interp.profiler import Profile, profile_call
from ..ir.module import Module
from ..ir.primitives import DEFAULT_FIFO_DEPTH
from ..transforms import optimize_module
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


def cgpa_compile(
    source: str | Module,
    kernel: str,
    shapes: RegionShapes | None = None,
    policy: ReplicationPolicy = ReplicationPolicy.P1,
    n_workers: int = DEFAULT_PARALLEL_WORKERS,
    profile_entry: str | None = None,
    profile_args: list[int | float] | None = None,
    loop_index: int = 0,
    module_name: str = "kernel",
    rewrite_parent: bool = True,
) -> CompiledPipeline:
    """Compile one loop of ``kernel`` into a CGPA pipeline.

    Args:
        source: C source text, or a pre-built (unoptimized) module.
        kernel: function whose loop is accelerated.
        shapes: region shape facts (default: fully conservative).
        policy: replicable-section placement (P1 / P2 / NONE).
        n_workers: parallel-stage worker count (paper default 4).
        profile_entry/profile_args: optional training run for SCC weights
            and hottest-loop selection.
        loop_index: which top-level loop to take when not profiling
            (default: the first; with profiling: the hottest).
    """
    if isinstance(source, Module):
        module = source
    else:
        module = compile_c(source, module_name)
    optimize_module(module)

    profile = None
    if profile_entry is not None:
        profile = profile_call(module, profile_entry, profile_args or [])

    function = module.get_function(kernel)
    loops = LoopInfo(function).top_level()
    if not loops:
        raise CgpaError(f"@{kernel} has no loops to accelerate")
    loop = _select_loop(loops, profile, loop_index)

    pointsto = PointsTo(module)
    pdg = ProgramDependenceGraph(loop, pointsto, shapes, profile)
    spec = partition_loop(pdg, n_workers=n_workers, policy=policy)
    result = transform_loop(module, spec, rewrite_parent=rewrite_parent)
    return CompiledPipeline(
        module=module,
        kernel_name=kernel,
        loop=loop,
        pdg=pdg,
        spec=spec,
        result=result,
        profile=profile,
    )


def _select_loop(loops: list[Loop], profile: Profile | None, loop_index: int) -> Loop:
    if profile is None:
        return loops[min(loop_index, len(loops) - 1)]
    # Hotspot identification: heaviest top-level loop by dynamic count.
    def weight(loop: Loop) -> int:
        return sum(profile.count(i) for i in loop.instructions())

    return max(loops, key=weight)


def cgpa_compile_all(
    source: str | Module,
    kernel: str,
    shapes: RegionShapes | None = None,
    policy: ReplicationPolicy = ReplicationPolicy.P1,
    n_workers: int = DEFAULT_PARALLEL_WORKERS,
    module_name: str = "kernel",
) -> list[CompiledPipeline]:
    """Accelerate *every* top-level loop of ``kernel``.

    Each loop gets its own pipeline with a distinct loop id, exactly the
    situation the paper's scheduling constraint (2) exists for: the
    parent invokes several accelerators, and forks of different loops
    must not share an FSM state.  Loops are processed in reverse program
    order so earlier rewrites don't invalidate later loop structures.
    """
    if isinstance(source, Module):
        module = source
    else:
        module = compile_c(source, module_name)
    optimize_module(module)
    function = module.get_function(kernel)
    pointsto = PointsTo(module)
    compiled: list[CompiledPipeline] = []
    # Discover all loops up front; rewrite from the last to the first so
    # header identities of not-yet-processed loops stay intact.
    loops = LoopInfo(function).top_level()
    if not loops:
        raise CgpaError(f"@{kernel} has no loops to accelerate")
    for loop_id, loop in reversed(list(enumerate(loops))):
        pdg = ProgramDependenceGraph(loop, pointsto, shapes, None)
        spec = partition_loop(pdg, n_workers=n_workers, policy=policy)
        result = transform_loop(module, spec, loop_id=loop_id, rewrite_parent=True)
        compiled.append(
            CompiledPipeline(
                module=module,
                kernel_name=kernel,
                loop=loop,
                pdg=pdg,
                spec=spec,
                result=result,
                profile=None,
            )
        )
    compiled.reverse()
    return compiled
