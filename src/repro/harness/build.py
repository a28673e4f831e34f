"""The one build path: kernel spec in, simulable module out (Figure 3).

``C source → IR → optimise → shape facts → PDG → partition → transform``
is spelled here and nowhere else: :func:`repro.pipeline.cgpa_compile`
takes the module this file optimised and runs only the last three
steps, and ``optimize_module`` runs once, to its own fixed point.  Every
consumer (backend runner, DSE evaluator, fault sweep, service
jobs, RTL co-simulation, benchmarks) builds through these two pure
functions, so a stage timer, a verifier pass or a compile budget
attaches once.  :func:`interned_pipeline` is :func:`compile_kernel`
through the process's one compiled-pipeline memo, for callers that
compile the same configuration repeatedly (design-space evaluator, fault
sweep, service jobs).  ``run_backend``, RTL co-simulation and the
ablations call :func:`compile_kernel` and retain nothing: a retained
pipeline measured ~0.41 MiB, +48 % peak RSS on the nine-kernel designer
benchmark (DESIGN.md, "Build and run path").
"""

from __future__ import annotations

from typing import Callable

from ..frontend import compile_c
from ..ir.module import Module
from ..kernels import KernelSpec
from ..pipeline import CompiledPipeline, ReplicationPolicy, cgpa_compile
from ..transforms import optimize_module


def compile_module(spec: KernelSpec) -> Module:
    """The optimised, *untransformed* module: what the MIPS model and the
    LegUp-style single FSM execute, and the interpreter oracle's input
    (``cgpa_compile`` rewrites the accelerated function with fork/join/
    FIFO ops a purely functional run does not execute)."""
    module = compile_c(spec.source, spec.name)
    optimize_module(module)
    return module


def compile_kernel(
    spec: KernelSpec,
    policy: ReplicationPolicy = ReplicationPolicy.P1,
    n_workers: int = 4,
) -> CompiledPipeline:
    """Compile ``spec``'s accelerated loop into a CGPA pipeline.

    Structure only: FIFO depth, like the cache, is given to the simulator
    and the cost model (:func:`repro.harness.runner.run_hardware`).

    Shape facts are read off the optimised module (malloc-site numbering
    follows the optimised IR), so the module is optimised before
    ``shapes_for``; the driver compiles that module as it is (its PDG
    refuses one that was not optimised).
    """
    module = compile_module(spec)
    return cgpa_compile(
        module,
        spec.accel_function,
        shapes=spec.shapes_for(module),
        policy=policy,
        n_workers=n_workers,
    )


#: Entries a per-process memo keeps before it is dropped wholesale.  A
#: pipeline is the heavy entry; an image is kilobytes and a checksum one
#: number, so the cap bounds resident bytes, not correctness.
_MEMO_ENTRIES = 32


def _interned(memo: dict, key, build: Callable):
    """``memo[key]``, built on a miss.  Two threads missing one key both
    build; ``setdefault`` publishes one value to both."""
    value = memo.get(key)
    if value is None:
        value = build()
        if len(memo) >= _MEMO_ENTRIES:
            memo.clear()
        value = memo.setdefault(key, value)
    return value


#: The process's one compiled-pipeline memo, keyed on everything
#: ``compile_kernel`` reads (see :func:`interned_pipeline`).
_PIPELINE_MEMO: dict = {}


def interned_pipeline(
    spec: KernelSpec,
    policy: ReplicationPolicy,
    n_workers: int,
) -> CompiledPipeline:
    """``compile_kernel`` through the per-process pipeline memo.

    Equal content returns the *same* object (so the specialized programs
    cached on its functions are shared by every evaluator, sweep and
    service job in the process); any difference in what
    ``compile_kernel`` reads — one trailing comment in the source
    included — is a miss.  Consumers treat the pipeline as read-only:
    simulators keep their state — FIFO sizes included — on the
    ``AcceleratorSystem``, so threads running different timings may
    share one entry.
    """
    sites = spec.list_shape_sites
    key = (
        spec.name, spec.source, spec.accel_function,
        sites if isinstance(sites, str) else tuple(sites),
        policy, n_workers,
    )
    return _interned(
        _PIPELINE_MEMO, key, lambda: compile_kernel(spec, policy, n_workers)
    )
