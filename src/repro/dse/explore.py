"""The explorer: fan design points out over a process pool, cache results.

Determinism contract: for a given (kernel, space, strategy, seed) the
sweep result — including the report JSON — is byte-identical whether it
runs serially, on a 4-process pool, or from a warm cache.  Three rules
make that hold:

* results are reassembled in *proposal* order, never completion order;
* nothing time- or pid-dependent is stored on an :class:`EvalResult`
  (wall-clock lives on the :class:`SweepResult` and stays out of its
  deterministic JSON form);
* strategies only see evaluated results, which are themselves
  deterministic, so every round proposes the same batch.

Work is sharded by design: each pool task is *all* points of one
:attr:`~repro.pipeline.CompiledPipeline.design_key` (computed in the
parent), which :meth:`Evaluator.evaluate_structure` scores with one
full simulation per timing no other point's run fixed.  The per-process
pipeline intern (:func:`repro.harness.build.interned_pipeline`) keeps
compiled pipelines alive across batches and strategy rounds, so each
compile key is compiled once per process and reused across the
FIFO-depth and cache variants that share it.

Parallelism comes from the shared :class:`~repro.fleet.FleetExecutor`
(one reusable pool per explorer, or an externally supplied fleet),
which also guarantees the serial path runs the *same* task function —
the mechanism behind "byte-identical at any pool size".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import CgpaError
from ..fleet import FleetExecutor
from ..harness.build import interned_pipeline
from ..hw import DEFAULT_ENGINE
from ..kernels import KernelSpec
from ..service.store import ArtifactStore
from .evaluate import DEFAULT_EVAL_MAX_CYCLES, EvalResult, Evaluator, result_key
from .pareto import OBJECTIVES, pareto_frontier
from .space import ConfigSpace, DesignPoint
from .strategies import Strategy


@dataclass
class SweepResult:
    """All evaluations of one sweep, in deterministic proposal order."""

    kernel: str
    strategy: str
    results: list[EvalResult] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Misses given another point's result instead of a simulation
    #: (:meth:`Evaluator.evaluate_structure`); the rest were simulated in
    #: full.  Provenance like ``cache_hits``: not in :meth:`to_json_dict`.
    derived: int = 0
    elapsed_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    def frontier(self) -> list[EvalResult]:
        return pareto_frontier(self.results, OBJECTIVES)

    def to_json_dict(self) -> dict:
        """Deterministic report form (no wall-clock, no cache provenance):
        the ``dse`` job artifact, and the ``payload`` of the run's
        ``dse-sweep`` :class:`~repro.obs.RunEnvelope`."""
        frontier_labels = [r.point.label for r in self.frontier()]
        return {
            "kernel": self.kernel,
            "strategy": self.strategy,
            "objectives": list(OBJECTIVES),
            "n_points": len(self.results),
            "status_counts": self.status_counts(),
            "frontier": frontier_labels,
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepResult":
        """Rebuild a sweep from :meth:`to_json_dict` output (or from a
        ``dse-sweep`` envelope payload, which wraps the same dict).

        Cache provenance and wall-clock were deliberately excluded from
        the deterministic form, so they come back zeroed — exactly the
        state :func:`repro.harness.report.format_pareto` renders without
        a cache line, keeping reconstructed reports byte-identical to a
        cache-less run's output.
        """
        return cls(
            kernel=data["kernel"],
            strategy=data["strategy"],
            results=[EvalResult.from_dict(r) for r in data.get("results", [])],
        )


def _evaluate_group(task) -> tuple[list[tuple[int, dict]], int]:
    """Fleet task: evaluate one structure-key group.

    Takes and returns plain picklable data; ``EvalResult`` travels as its
    dict form so the parent rebuilds identical objects on any start
    method (fork or spawn) — and the serial path round-trips through the
    same dicts, keeping its bytes identical to any pool size.  The second
    value is :meth:`Evaluator.evaluate_structure`'s derived count.
    """
    spec, max_cycles, engine, group = task
    evaluator = Evaluator(spec, max_cycles=max_cycles, engine=engine)
    results, derived = evaluator.evaluate_structure([point for _, point in group])
    rows = [(index, result.to_dict()) for (index, _), result in zip(group, results)]
    return rows, derived


class Explorer:
    """Run strategies over a config space for one kernel."""

    def __init__(
        self,
        spec: KernelSpec,
        space: ConfigSpace | None = None,
        cache: ArtifactStore | None = None,
        processes: int = 1,
        max_cycles: int = DEFAULT_EVAL_MAX_CYCLES,
        engine: str = DEFAULT_ENGINE,
        fleet: FleetExecutor | None = None,
        envelopes=None,
    ) -> None:
        """``envelopes`` is an optional
        :class:`~repro.obs.emit.EnvelopeWriter`: when set, every freshly
        evaluated point (cache misses; hits were journalled when first
        computed) is persisted as a ``dse-eval`` run envelope.  Emission
        happens in the parent process — the writer never crosses the
        pool boundary, so the byte-determinism contract is untouched."""
        self.spec = spec
        self.space = space if space is not None else ConfigSpace()
        self.cache = cache
        self.processes = max(1, processes)
        self.max_cycles = max_cycles
        self.engine = engine
        self.envelopes = envelopes
        # An externally supplied fleet is shared (and owned) by the
        # caller; otherwise the explorer lazily creates its own and
        # reuses it across every batch and run.
        self._fleet = fleet
        self._owns_fleet = fleet is None

    @property
    def fleet(self) -> FleetExecutor:
        if self._fleet is None:
            self._fleet = FleetExecutor(
                self.processes,
                envelopes=self.envelopes,
                context={"subsystem": "dse", "kernel": self.spec.name},
            )
        return self._fleet

    def close(self) -> None:
        """Release the explorer's own pool (no-op for a shared fleet)."""
        if self._owns_fleet and self._fleet is not None:
            self._fleet.close()

    def __enter__(self) -> "Explorer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, strategy: Strategy) -> SweepResult:
        """Drive ``strategy`` to exhaustion and collect every result."""
        start = time.perf_counter()
        sweep = SweepResult(kernel=self.spec.name, strategy=strategy.name)
        evaluated: dict[DesignPoint, EvalResult] = {}
        while True:
            batch, seen = [], set(evaluated)
            for point in strategy.propose(self.space, evaluated):
                if point not in seen:
                    batch.append(point)
                    seen.add(point)
            if not batch:
                break
            for point, result in zip(batch, self._evaluate_batch(batch, sweep)):
                evaluated[point] = result
                sweep.results.append(result)
        sweep.elapsed_s = time.perf_counter() - start
        return sweep

    # -- batch evaluation --------------------------------------------------

    def _evaluate_batch(
        self, batch: list[DesignPoint], sweep: SweepResult
    ) -> list[EvalResult]:
        slots: list[EvalResult | None] = [None] * len(batch)
        misses: list[tuple[int, DesignPoint]] = []
        keys: dict[int, str] = {}
        want_keys = self.cache is not None or self.envelopes is not None
        for index, point in enumerate(batch):
            if want_keys:
                keys[index] = result_key(
                    self.spec, point, self.max_cycles, self.engine
                )
            if self.cache is not None:
                stored = self.cache.get(keys[index])
                if stored is not None:
                    result = EvalResult.from_dict(stored)
                    result.from_cache = True
                    slots[index] = result
                    sweep.cache_hits += 1
                    continue
            misses.append((index, point))
        sweep.cache_misses += len(misses)

        def persist(index: int, result: EvalResult) -> None:
            # Fires the moment a shard lands (checkpointing: a killed
            # sweep restarted against the same cache replays everything
            # persisted so far).  cache keys are content addresses, so
            # completion-order writes are order-independent.
            if self.cache is not None:
                self.cache.put(keys[index], result.to_dict())
            if self.envelopes is not None:
                from ..obs.emit import eval_envelope

                self.envelopes.write(
                    eval_envelope(
                        result,
                        kernel=self.spec.name,
                        engine=self.engine,
                        config_hash=keys[index],
                    )
                )

        for index, result in self._evaluate_misses(misses, persist, sweep):
            slots[index] = result
        assert all(r is not None for r in slots)
        return slots  # type: ignore[return-value]

    def _evaluate_misses(
        self,
        misses: list[tuple[int, DesignPoint]],
        persist,
        sweep: SweepResult,
    ) -> list[tuple[int, EvalResult]]:
        if not misses:
            return []
        # Shard by design: one task = one design, each timing run once.
        groups: dict[object, list[tuple[int, DesignPoint]]] = {}
        for index, point in misses:
            try:
                key = interned_pipeline(
                    self.spec, point.replication_policy, point.n_workers
                ).design_key
            except CgpaError:  # the task reports it
                key = point.compile_key
            groups.setdefault(key, []).append((index, point))
        tasks = [
            (self.spec, self.max_cycles, self.engine, group)
            for group in groups.values()
        ]
        results_by_index: dict[int, EvalResult] = {}

        def on_shard(_task_index: int, shard) -> None:
            rows, derived = shard
            for index, data in rows:
                result = EvalResult.from_dict(data)
                results_by_index[index] = result
                persist(index, result)
            sweep.derived += derived

        # Serial and pooled runs route through the same fleet task and
        # round-trip results through the same dict form, so reports are
        # byte-identical at any pool size.  on_shard fires per completed
        # shard (completion order); the returned list is proposal-ordered.
        shards = self.fleet.map(_evaluate_group, tasks, on_result=on_shard)
        out: list[tuple[int, EvalResult]] = []
        for rows, _derived in shards:
            out.extend((index, results_by_index[index]) for index, _ in rows)
        return out
