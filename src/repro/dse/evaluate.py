"""Score one design point: compile → simulate → cost-model.

The evaluator is deliberately *total*: a configuration that deadlocks,
blows its cycle budget, or fails to compile produces an
:class:`EvalResult` with the corresponding ``status`` instead of raising,
so one pathological point can never abort a sweep.  Compilation goes
through :func:`~repro.harness.build.interned_pipeline`, so points that
differ only in the knobs of the instantiated machine (FIFO depth, cache
organisation) — in this evaluator or any other in the process — reuse
the same :class:`~repro.pipeline.driver.CompiledPipeline`, which no
evaluation writes to.

Points that share one design (``p1`` and ``none`` often compile to one
:attr:`~repro.pipeline.CompiledPipeline.design_key`) differ only in
knobs that move cycles, never values, so
:meth:`Evaluator.evaluate_structure` simulates each of their timings
once, in full, and gives every other point of that timing its result:
the same knobs, or a cache size whose shadow tags
(:meth:`~repro.hw.cache.DirectMappedCache.add_shadow`) matched the run
hit for hit; :meth:`Evaluator.evaluate` alone is always a full
simulation.

:func:`result_key` addresses one evaluation in the service's
:class:`~repro.service.store.ArtifactStore` (shared with job artifacts): an
entry is never invalidated, only no longer addressed once its key changes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

from ..cost import COST_MODEL_VERSION
from ..errors import CgpaError, CycleBudgetExceeded, DeadlockError
from ..harness.build import interned_pipeline
from ..harness.runner import run_hardware
from ..hw import DEFAULT_ENGINE, DirectMappedCache
from ..kernels import KernelSpec
from ..pipeline import CompiledPipeline
from .space import DEFAULT_EVAL_MAX_CYCLES, DesignPoint

#: ``EvalResult.status`` values.
STATUSES = ("ok", "deadlock", "timeout", "error")

#: Bump when the EvalResult schema or evaluation semantics change.
CACHE_SCHEMA_VERSION = 1


def result_key(spec: KernelSpec, point: DesignPoint, max_cycles: int, engine: str) -> str:
    """Hex digest of everything that determines one :class:`EvalResult`:
    the ``content_key`` of the payload :func:`_key_frame` spells, whose
    bytes around the point are encoded once per kernel, budget and engine."""
    fields = spec.key_fields()
    fields["setup_args"] = tuple(fields["setup_args"])
    head, tail = _key_frame(tuple(fields.items()), max_cycles, engine)
    digest = head.copy()
    digest.update(json.dumps(point.to_dict(), sort_keys=True).encode())
    digest.update(tail)
    return digest.hexdigest()


@lru_cache(maxsize=16)
def _key_frame(kernel_fields: tuple, max_cycles: int, engine: str):
    """The sha256 state of a :func:`result_key` payload's canonical JSON
    up to the point's value, and the bytes after it.  ``"point": null``
    is unique in that text: inside a JSON string every quote is escaped."""
    text = json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "cost_model": COST_MODEL_VERSION,
        **dict(kernel_fields),
        "point": None,
        "max_cycles": max_cycles,
        "engine": engine,
    }, sort_keys=True)
    head, tail = text.split('"point": null')
    return hashlib.sha256(f'{head}"point": '.encode()), tail.encode()


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
    passed to :meth:`evaluate`.  Stateless — compiled pipelines live in
    the process-wide intern, one per :attr:`DesignPoint.compile_key`; FIFO
    depth and cache are bound per run — so instances are cheap per task.
    """

    def __init__(
        self,
        spec: KernelSpec,
        max_cycles: int = DEFAULT_EVAL_MAX_CYCLES,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.spec = spec
        self.max_cycles = max_cycles
        self.engine = engine

    # -- compilation -------------------------------------------------------

    def compile(self, point: DesignPoint) -> CompiledPipeline:
        """The interned pipeline of ``point``'s :attr:`~DesignPoint.compile_key`."""
        return interned_pipeline(
            self.spec, point.replication_policy, point.n_workers
        )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: DesignPoint) -> EvalResult:
        """Score one point by a full simulation; failures land in
        ``status``, never propagate."""
        return self._evaluate(point, DirectMappedCache(
            n_lines=point.cache_lines, ports=point.cache_ports))

    def evaluate_structure(
        self, points: list[DesignPoint]
    ) -> tuple[list[EvalResult], int]:
        """Score points that share one design
        (:attr:`~repro.pipeline.CompiledPipeline.design_key`), running
        each timing once.

        On the specialized engine a point that shares its timing knobs
        with an earlier ``ok`` point is given that result under its own
        point and signature.  Shared-cache points that differ only in
        ``cache_lines`` form a family: its first run carries a shadow tag
        array of each sibling's size
        (:meth:`~repro.hw.cache.DirectMappedCache.add_shadow`), and a
        size whose shadow matched counts as timed by that run.  Every
        other point is simulated in full, so every status, error and
        diagnosis is the full simulator's.

        Every result is the one :meth:`evaluate` returns for its point;
        the second value counts the derived ones.
        """
        derived = 0
        results: list[EvalResult] = []
        specialized = self.engine == "specialized"
        # A family's first run takes its other sizes as shadows.
        family_lines: dict[tuple, set[int]] = {}
        for point in points:
            if specialized and not point.private_caches:
                family_lines.setdefault(
                    _timing(point, None), set()).add(point.cache_lines)
        timed: dict[tuple, EvalResult] = {}  # timing -> an ok result of it
        for point in points:
            source = timed.get(_timing(point, point.cache_lines))
            if source is not None:
                derived += 1
                results.append(replace(
                    source, point=point,
                    signature=self.compile(point).full_signature(point.fifo_depth),
                    stall_cycles=dict(source.stall_cycles)))
                continue
            cache = DirectMappedCache(
                n_lines=point.cache_lines, ports=point.cache_ports)
            for lines in sorted(family_lines.pop(_timing(point, None), ())):
                if lines != point.cache_lines:
                    cache.add_shadow(lines)
            result = self._evaluate(point, cache)
            if result.ok and specialized:
                timed[_timing(point, point.cache_lines)] = result
                for shadow in cache.shadows:
                    if shadow.matched:
                        timed[_timing(point, shadow.n_lines)] = result
            results.append(result)
        return results, derived

    def _evaluate(self, point: DesignPoint, cache: DirectMappedCache) -> EvalResult:
        """:meth:`evaluate` on ``cache``."""
        try:
            compiled = self.compile(point)
        except CgpaError as exc:
            return EvalResult(point=point, status="error",
                              error=f"compile: {exc}")
        signature = compiled.full_signature(point.fifo_depth)
        try:
            return self._simulate(point, compiled, cache)
        except DeadlockError as exc:
            diagnosis = exc.diagnosis
            return EvalResult(
                point=point,
                status="deadlock",
                signature=signature,
                error=str(exc).splitlines()[0],
                diagnosis=diagnosis.format() if diagnosis else str(exc),
            )
        except CycleBudgetExceeded as exc:
            return EvalResult(
                point=point,
                status="timeout",
                signature=signature,
                error=str(exc),
            )
        except CgpaError as exc:
            return EvalResult(point=point, status="error",
                              signature=signature, error=str(exc))

    def _simulate(
        self,
        point: DesignPoint,
        compiled: CompiledPipeline,
        cache: DirectMappedCache,
    ) -> EvalResult:
        run = run_hardware(
            self.spec, f"cgpa-{point.policy}", compiled, cache,
            engine=self.engine,
            max_cycles=self.max_cycles,
            private_caches=point.private_caches,
            fifo_depth=point.fifo_depth,
        )
        sim = run.sim
        return EvalResult(
            point=point,
            status="ok",
            cycles=run.cycles,
            total_aluts=run.aluts,
            energy_uj=run.energy_uj,
            power_mw=run.power_mw,
            signature=compiled.full_signature(point.fifo_depth),
            stall_cycles=sim.stall_totals(),
            cache_hit_rate=sim.cache_stats.hit_rate,
            checksum=float(run.checksum),
        )


def _timing(point: DesignPoint, cache_lines: int | None) -> tuple:
    """The knobs of ``point`` that its design leaves free, with
    ``cache_lines`` in place of its own (None for its cache family)."""
    return (point.fifo_depth, point.private_caches, cache_lines,
            point.cache_ports)
