"""The one build path: kernel spec in, simulable module out (Figure 3).

``C source → IR → optimise → shape facts → PDG → partition → transform``
is spelled here and nowhere else above :mod:`repro.pipeline.driver`:
every consumer (backend runner, DSE evaluator, fault sweep, service
jobs, RTL co-simulation, benchmarks) builds through these two pure
functions, so a stage timer, a verifier pass or a compile budget
attaches once.  :func:`repro.fleet.interned_pipeline` is the memoized
form for callers that compile the same configuration repeatedly.
"""

from __future__ import annotations

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
    ``shapes_for`` and handed to the driver pre-built.
    """
    module = compile_module(spec)
    return cgpa_compile(
        module,
        spec.accel_function,
        shapes=spec.shapes_for(module),
        policy=policy,
        n_workers=n_workers,
    )
