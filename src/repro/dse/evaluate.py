"""Score one design point: compile → simulate → cost-model.

The evaluator is deliberately *total*: a configuration that deadlocks,
blows its cycle budget, or fails to compile produces an
:class:`EvalResult` with the corresponding ``status`` instead of raising,
so one pathological point can never abort a sweep.  Compilation is
memoized per :attr:`~repro.dse.space.DesignPoint.compile_key`, so points
that differ only in simulator knobs (cache organisation) reuse the same
:class:`~repro.pipeline.driver.CompiledPipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..errors import (
    CgpaError,
    CycleBudgetExceeded,
    DeadlockError,
    SimulationError,
)
from ..fleet import interned_workload
from ..frontend import compile_c
from ..harness.runner import cgpa_area, run_check
from ..hw import AcceleratorSystem, DirectMappedCache
from ..cost import power_report
from ..kernels import KernelSpec
from ..pipeline import CompiledPipeline, cgpa_compile
from ..transforms import optimize_module
from .space import DesignPoint

#: Default per-point cycle budget; generous for the paper workloads (the
#: slowest backend finishes in well under a million cycles) yet small
#: enough that a livelocked configuration fails fast.
DEFAULT_EVAL_MAX_CYCLES = 50_000_000

#: ``EvalResult.status`` values.
STATUSES = ("ok", "deadlock", "timeout", "error")


@dataclass
class EvalResult:
    """Flat outcome of one design-point evaluation.

    Every field is plain data (JSON-serialisable via :meth:`to_dict`), so
    results cross process boundaries and survive in the on-disk cache.
    ``from_cache`` is bookkeeping about *this* sweep, not about the
    configuration — it is deliberately excluded from serialisation so a
    warm re-run emits byte-identical report JSON.
    """

    point: DesignPoint
    status: str
    cycles: int | None = None
    total_aluts: int | None = None
    energy_uj: float | None = None
    power_mw: float | None = None
    signature: str | None = None
    stall_cycles: dict[str, int] = field(default_factory=dict)
    cache_hit_rate: float | None = None
    checksum: float | None = None
    error: str | None = None
    #: Multi-line watchdog wait-for-graph report for ``deadlock`` results
    #: (which worker blocked on which FIFO op, occupancy snapshot,
    #: suspected cycle); None for every other status.
    diagnosis: str | None = None
    from_cache: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def objectives(self) -> tuple[int, int, float]:
        """The (cycles, total_aluts, energy_uj) minimisation vector."""
        assert self.ok, "objectives are only defined for ok results"
        return (self.cycles, self.total_aluts, self.energy_uj)

    def to_dict(self) -> dict:
        return {
            "point": self.point.to_dict(),
            "status": self.status,
            "cycles": self.cycles,
            "total_aluts": self.total_aluts,
            "energy_uj": self.energy_uj,
            "power_mw": self.power_mw,
            "signature": self.signature,
            "stall_cycles": {k: self.stall_cycles[k]
                             for k in sorted(self.stall_cycles)},
            "cache_hit_rate": self.cache_hit_rate,
            "checksum": self.checksum,
            "error": self.error,
            "diagnosis": self.diagnosis,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalResult":
        # Keep only known fields: cache entries written by a *newer*
        # schema (extra keys) must load, not crash the sweep; entries
        # written before a field existed fall back to its default.
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in data.items() if k in known}
        data["point"] = DesignPoint.from_dict(data["point"])
        data.setdefault("diagnosis", None)
        return cls(**data)


class Evaluator:
    """Compile-and-simulate scorer for one kernel.

    One evaluator per (kernel, cycle budget, engine); design points are
    passed to :meth:`evaluate`.  Stateless apart from the compile memo, so
    pool workers each hold their own instance.
    """

    def __init__(
        self,
        spec: KernelSpec,
        max_cycles: int = DEFAULT_EVAL_MAX_CYCLES,
        engine: str = "event",
        envelopes=None,
    ) -> None:
        """``envelopes`` is an optional
        :class:`~repro.obs.emit.EnvelopeWriter`: when set, every
        :meth:`evaluate` call also persists a ``dse-eval`` run envelope
        (config hash = the result-cache key, so envelope and cache entry
        describe the same work).  Pool workers leave it unset — the
        explorer emits from the parent process instead."""
        self.spec = spec
        self.max_cycles = max_cycles
        self.engine = engine
        self.envelopes = envelopes
        self._compiled: dict[tuple[str, int, int], CompiledPipeline] = {}

    # -- compilation -------------------------------------------------------

    def compile(self, point: DesignPoint) -> CompiledPipeline:
        """Compile the kernel for ``point``'s compile-time knobs (memoized)."""
        key = point.compile_key
        if key not in self._compiled:
            spec = self.spec
            module = compile_c(spec.source, spec.name)
            optimize_module(module)
            self._compiled[key] = cgpa_compile(
                module,
                spec.accel_function,
                shapes=spec.shapes_for(module),
                policy=point.replication_policy,
                n_workers=point.n_workers,
                fifo_depth=point.fifo_depth,
            )
        return self._compiled[key]

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: DesignPoint) -> EvalResult:
        """Score one point; failures land in ``status``, never propagate."""
        result = self._evaluate_total(point)
        if self.envelopes is not None:
            from ..obs.emit import eval_envelope
            from .cache import result_key

            self.envelopes.write(
                eval_envelope(
                    result,
                    kernel=self.spec.name,
                    engine=self.engine,
                    config_hash=result_key(
                        self.spec, point, self.max_cycles, self.engine
                    ),
                )
            )
        return result

    def _evaluate_total(self, point: DesignPoint) -> EvalResult:
        try:
            compiled = self.compile(point)
        except CgpaError as exc:
            return EvalResult(point=point, status="error",
                              error=f"compile: {exc}")
        try:
            return self._simulate(point, compiled)
        except DeadlockError as exc:
            diagnosis = exc.diagnosis
            return EvalResult(
                point=point,
                status="deadlock",
                signature=compiled.full_signature,
                error=str(exc).splitlines()[0],
                diagnosis=diagnosis.format() if diagnosis else str(exc),
            )
        except CycleBudgetExceeded as exc:
            return EvalResult(
                point=point,
                status="timeout",
                signature=compiled.full_signature,
                error=str(exc),
            )
        except SimulationError as exc:
            return EvalResult(
                point=point,
                status=_classify_sim_failure(exc),
                signature=compiled.full_signature,
                error=str(exc),
            )
        except CgpaError as exc:
            return EvalResult(point=point, status="error",
                              signature=compiled.full_signature,
                              error=str(exc))

    def _simulate(
        self, point: DesignPoint, compiled: CompiledPipeline
    ) -> EvalResult:
        spec = self.spec
        # Interned per (module, kernel): the functional setup runs once
        # per process; each evaluation gets a bit-identical clone.
        memory, globals_, args = interned_workload(compiled.module, spec)
        system = AcceleratorSystem(
            compiled.module,
            memory,
            channels=compiled.result.channels,
            cache=DirectMappedCache(
                n_lines=point.cache_lines, ports=point.cache_ports
            ),
            global_addresses=globals_,
            private_caches=point.private_caches,
            max_cycles=self.max_cycles,
            engine=self.engine,
        )
        sim = system.run(spec.measure_entry, args)
        area = cgpa_area(compiled)
        power = power_report(
            sim, area, list(compiled.module.functions.values())
        )
        checksum = run_check(compiled.module, memory, globals_, spec)
        stall: dict[str, int] = {}
        for breakdown in sim.stall_breakdown.values():
            for category, count in breakdown.items():
                stall[category] = stall.get(category, 0) + count
        return EvalResult(
            point=point,
            status="ok",
            cycles=sim.cycles,
            total_aluts=area.total_aluts,
            energy_uj=power.energy_uj,
            power_mw=power.power_mw,
            signature=compiled.full_signature,
            stall_cycles=stall,
            cache_hit_rate=sim.cache_stats.hit_rate,
            checksum=float(checksum),
        )


def _classify_sim_failure(exc: SimulationError) -> str:
    """Deadlock vs. cycle-budget exhaustion vs. anything else.

    .. deprecated::
        Message-grepping fallback, kept only for :class:`SimulationError`
        instances raised by code that predates the typed
        :class:`~repro.errors.DeadlockError` /
        :class:`~repro.errors.CycleBudgetExceeded` hierarchy.  The
        evaluator catches the typed exceptions first; new failure paths
        should raise those instead of relying on this classifier.
    """
    message = str(exc)
    if "deadlock" in message:
        return "deadlock"
    if "max_cycles" in message:
        return "timeout"
    return "error"
