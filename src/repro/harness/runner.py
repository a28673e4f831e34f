"""Benchmark harness: run one kernel on every backend and collect metrics.

Backends (the three data points of Section 4.2, plus the P2 variant):

* ``mips``    — the soft-core cost model (:mod:`repro.hw.mips_core`);
* ``legup``   — LegUp-style HLS: the unmodified kernel as one FSM worker;
* ``cgpa-p1`` — the CGPA pipeline with the paper's default replication
  heuristic;
* ``cgpa-p2`` — replicable sections forced into the parallel workers
  (only for kernels where Table 2 lists a P2 partition).

Every backend consumes a bit-identical workload (built by the kernel's
``setup`` under the functional interpreter) and is validated against the
kernel's checksum function — the reproduction of the paper's statement
that every generated design passed verification.

Those two interpreter runs are spelled here and nowhere else:
:func:`setup_workload` and :func:`run_check` are the pure runs, and
:func:`interned_workload` and :func:`interned_check` — what every caller
uses — are the same runs through two per-process memos whose keys hold
everything the run can read, so a hit is the value a fresh run would
have returned, not an assumption about the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..cost import (
    AreaReport,
    PowerReport,
    accelerator_area,
    function_aluts,
    power_report,
    single_module_area,
)
from ..errors import CgpaError
from ..hw import DEFAULT_ENGINE, AcceleratorSystem, DirectMappedCache, SimReport, run_on_mips
from ..interp import Interpreter, Memory, reachable_ir, to_unsigned
from ..ir import DEFAULT_FIFO_DEPTH, I32
from ..ir.module import Module
from ..kernels import KARGS_GLOBAL, KernelSpec
from ..pipeline import CompiledPipeline, ReplicationPolicy
from ..telemetry.events import TraceSink
from .build import _interned, compile_kernel, compile_module

DEFAULT_BACKENDS = ("mips", "legup", "cgpa-p1")


@dataclass
class BackendResult:
    """Metrics from one backend run of one kernel."""

    backend: str
    cycles: int
    checksum: float
    return_value: int | float | None
    signature: str | None = None
    area: AreaReport | None = None
    power: PowerReport | None = None
    sim: SimReport | None = None
    mips_instructions: int | None = None

    @property
    def aluts(self) -> int | None:
        return self.area.total_aluts if self.area else None

    @property
    def power_mw(self) -> float | None:
        return self.power.power_mw if self.power else None

    @property
    def energy_uj(self) -> float | None:
        return self.power.energy_uj if self.power else None


@dataclass
class KernelRun:
    """All backend results for one kernel, cross-validated."""

    spec: KernelSpec
    results: dict[str, BackendResult] = field(default_factory=dict)

    def speedup(self, backend: str, baseline: str = "mips") -> float:
        return self.results[baseline].cycles / self.results[backend].cycles

    def energy_efficiency(self, backend: str) -> float | None:
        """Kernel work (thousands of dynamic IR ops) per microjoule."""
        result = self.results[backend]
        mips = self.results.get("mips")
        if result.energy_uj is None or mips is None or not mips.mips_instructions:
            return None
        return (mips.mips_instructions / 1e3) / result.energy_uj

    def validate(self) -> None:
        checksums = {
            name: result.checksum for name, result in self.results.items()
        }
        reference = next(iter(checksums.values()))
        for name, value in checksums.items():
            if not _close(value, reference):
                raise CgpaError(
                    f"{self.spec.name}: backend {name} checksum {value} != "
                    f"{reference}"
                )
        returns = {
            name: r.return_value
            for name, r in self.results.items()
            if r.return_value is not None
        }
        values = list(returns.values())
        for name, value in returns.items():
            if not _close(value, values[0]):
                raise CgpaError(
                    f"{self.spec.name}: backend {name} returned {value} != "
                    f"{values[0]}"
                )


def _close(a, b, rel=1e-9) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        scale = max(abs(float(a)), abs(float(b)), 1.0)
        return abs(float(a) - float(b)) <= rel * scale
    return a == b


def setup_workload(module, spec: KernelSpec):
    """Run the kernel's setup functionally; returns (memory, globals, args).

    The one set-up run, and the reference :func:`interned_workload` is
    tested against; ``src/repro`` reaches it through that memo only.
    """
    interp = Interpreter(module)
    interp.call(spec.setup_function, list(spec.setup_args))
    kargs_addr = interp.global_addresses[KARGS_GLOBAL]
    args = [
        to_unsigned(interp.memory.load(kargs_addr + 4 * i, I32), 32)
        for i in range(spec.n_kernel_args)
    ]
    return interp.memory, interp.global_addresses, args


def run_check(module, memory, global_addresses, spec: KernelSpec) -> float:
    """Interpret the kernel's ``check`` function over a post-run image.

    The one checksum run, and the reference :func:`interned_check` is
    tested against; ``src/repro`` reaches it through that memo only.
    """
    interp = Interpreter(module, memory, global_addresses=global_addresses)
    return interp.call(spec.check_function, [])


#: Pristine post-setup images ``(memory, globals, args)``, keyed on
#: everything the set-up run reads (see :func:`interned_workload`).
_WORKLOAD_MEMO: dict = {}

#: Checksums, keyed on everything the check run reads: the post-run
#: image byte for byte (see :func:`interned_check`).
_CHECK_MEMO: dict = {}


def interned_workload(module, spec: KernelSpec):
    """``setup_workload`` through the per-process image memo.

    Returns ``(memory, globals, args)`` exactly like
    :func:`setup_workload`: a fresh
    :meth:`~repro.interp.memory.Memory.clone` of the pristine image,
    allocator break, allocation list and access counters included.  The
    key is what the set-up run can read — the
    :func:`~repro.interp.reachable_ir` of ``spec.setup_function`` in
    ``module``, its arguments and the number of kernel arguments read
    back — so every design of a kernel whose set-up code the pipeline
    transform left alone shares one run, and one that it rewrote does
    not.  Name and source are in the key as in
    :func:`~repro.harness.build.interned_pipeline`: source the process
    has not seen is a miss in every layer.
    """
    key = (
        spec.name, spec.source, tuple(spec.setup_args), spec.n_kernel_args,
        reachable_ir(module, spec.setup_function),
    )
    memory, globals_, args = _interned(
        _WORKLOAD_MEMO, key, lambda: setup_workload(module, spec)
    )
    return memory.clone(), dict(globals_), list(args)


def interned_check(
    module, memory: Memory, global_addresses: dict, spec: KernelSpec
) -> float:
    """``run_check`` through the per-process checksum memo.

    The key is the :func:`~repro.interp.reachable_ir` of
    ``spec.check_function``, the global addresses and
    :meth:`~repro.interp.memory.Memory.image_key` — the break and a
    sha256 of the whole buffer — which is all ``check`` can read.  An
    image that differs in one byte is a miss and is interpreted, so a
    wrong design or a corrupted run is scored by the real ``check``; the
    designs of a sweep that all leave the oracle's image share one run.
    On a hit ``memory`` is left as the simulation left it.
    """
    key = (
        spec.name, spec.source,
        reachable_ir(module, spec.check_function),
        tuple(global_addresses.items()), memory.image_key(),
    )
    return _interned(
        _CHECK_MEMO, key,
        lambda: run_check(module, memory, global_addresses, spec),
    )


class Workload(NamedTuple):
    """The two interpreter runs around one simulation.

    ``setup(module, spec)`` builds the ``(memory, globals, args)`` image
    and ``check(module, memory, globals, spec)`` scores the image the
    run left behind.
    """

    setup: Callable
    check: Callable


#: Replication policy behind each ``cgpa-*`` backend name.
_POLICIES = {
    "cgpa-p1": ReplicationPolicy.P1,
    "cgpa-p2": ReplicationPolicy.P2,
    "cgpa-none": ReplicationPolicy.NONE,
}


def run_hardware(
    spec: KernelSpec,
    backend: str,
    design: CompiledPipeline | Module,
    cache: DirectMappedCache,
    workload: Workload = Workload(interned_workload, interned_check),
    engine: str = DEFAULT_ENGINE,
    max_cycles: int | None = None,
    private_caches: bool = False,
    sink: TraceSink | None = None,
    injector=None,
    fifo_depth: int = DEFAULT_FIFO_DEPTH,
) -> BackendResult:
    """The one run path: workload image → simulate → area/power → check.

    ``design`` is a compiled pipeline, or the plain module for the
    LegUp-style single FSM.  ``workload`` builds the image from the
    design's module and checks the one the run leaves; the default
    clones the per-process pristine image and interprets ``check`` once
    per distinct post-run image.  Tests pass ``Workload(setup_workload,
    run_check)``, the reference the default must equal.  ``fifo_depth``
    sizes the FIFOs of the simulator and of the area model; ``design``
    carries none and is never written to, so runs of any depth share it.
    Simulator failures (deadlock, cycle budget, invariant violation)
    propagate to the caller.
    """
    compiled = design if isinstance(design, CompiledPipeline) else None
    module = compiled.module if compiled else design
    memory, globals_, args = workload.setup(module, spec)
    budget = {} if max_cycles is None else {"max_cycles": max_cycles}
    accelerator = AcceleratorSystem(
        module,
        memory,
        channels=compiled.result.channels if compiled else None,
        cache=cache,
        global_addresses=globals_,
        private_caches=private_caches,
        sink=sink,
        engine=engine,
        injector=injector,
        fifo_depth=fifo_depth,
        **budget,
    )
    sim = accelerator.run(spec.measure_entry, args)
    if compiled:
        area = cgpa_area(compiled, fifo_depth)
    else:
        area = single_module_area(module.get_function(spec.measure_entry))
    power = power_report(sim, area, list(module.functions.values()))
    return BackendResult(
        backend=backend,
        cycles=sim.cycles,
        checksum=workload.check(module, memory, globals_, spec),
        return_value=sim.return_value,
        signature=compiled.signature if compiled else None,
        area=area,
        power=power,
        sim=sim,
    )


def run_backend(
    spec: KernelSpec,
    backend: str,
    n_workers: int = 4,
    fifo_depth: int = DEFAULT_FIFO_DEPTH,
    cache_kwargs: dict | None = None,
    sink: TraceSink | None = None,
    max_cycles: int | None = None,
) -> BackendResult:
    """Compile, simulate and score one kernel on one backend.

    ``sink`` attaches a telemetry receiver (e.g. a
    :class:`~repro.telemetry.events.MemoryTraceSink`) to the simulated
    accelerator — only meaningful for the hardware backends (``legup``,
    ``cgpa-*``); the MIPS cost model has no cycle-level FSM to trace.

    The hardware backends simulate on :data:`repro.hw.DEFAULT_ENGINE`;
    the other engines, which report identical cycles, are references a
    test selects through :func:`run_hardware`.

    ``max_cycles`` caps the simulated clock; a run that exceeds it raises
    :class:`~repro.errors.CycleBudgetExceeded` (hardware backends only —
    the MIPS cost model executes a finite instruction trace).
    """
    cache_kwargs = dict(cache_kwargs or {})
    if backend == "mips":
        module = compile_module(spec)
        memory, globals_, args = interned_workload(module, spec)
        mips = run_on_mips(
            module, spec.measure_entry, args, memory,
            cache=DirectMappedCache(**cache_kwargs),
            global_addresses=globals_,
        )
        return BackendResult(
            backend="mips",
            cycles=mips.cycles,
            checksum=interned_check(module, memory, globals_, spec),
            return_value=mips.return_value,
            mips_instructions=mips.instructions,
        )

    if backend == "legup":
        design = compile_module(spec)
    elif backend in _POLICIES:
        design = compile_kernel(spec, _POLICIES[backend], n_workers)
    else:
        raise CgpaError(f"unknown backend {backend!r}")
    cache_kwargs.setdefault("ports", 8)
    return run_hardware(
        spec, backend, design, DirectMappedCache(**cache_kwargs),
        max_cycles=max_cycles, sink=sink, fifo_depth=fifo_depth,
    )


def cgpa_area(
    compiled: CompiledPipeline, fifo_depth: int = DEFAULT_FIFO_DEPTH
) -> AreaReport:
    """Area of one compiled CGPA pipeline (workers + wrapper + FIFOs).

    Public because the design-space explorer (:mod:`repro.dse`) scores
    compiled pipelines outside the backend runner.
    """
    area = accelerator_area(
        compiled.result.tasks,
        [stage.n_workers for stage in compiled.spec.stages],
        compiled.result.channels,
        fifo_depth=fifo_depth,
    )
    # The wrapper (the rewritten parent, possibly with callers above it)
    # is hardware too — a small sequential module.
    parent = compiled.result.parent
    area.worker_aluts[f"{parent.name}(wrapper)"] = function_aluts(parent)
    return area


def run_kernel(
    spec: KernelSpec,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    n_workers: int = 4,
    fifo_depth: int = DEFAULT_FIFO_DEPTH,
    max_cycles: int | None = None,
) -> KernelRun:
    """Run one kernel on all requested backends and cross-validate."""
    run = KernelRun(spec)
    for backend in backends:
        if backend == "cgpa-p2" and not spec.supports_p2:
            continue
        run.results[backend] = run_backend(
            spec, backend, n_workers=n_workers, fifo_depth=fifo_depth,
            max_cycles=max_cycles,
        )
    run.validate()
    return run
