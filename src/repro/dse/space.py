"""Design points and the knob space the explorer enumerates.

A :class:`DesignPoint` pins every knob of one accelerator configuration:
the compile-time knobs (replication policy, parallel-worker count —
together the *compile key*, because they select a distinct
:class:`~repro.pipeline.driver.CompiledPipeline`) and the knobs of the
instantiated machine (FIFO depth, shared vs. private caches, cache lines,
cache ports) that reuse the same compiled pipeline: they change when
things happen, not what is computed.  A :class:`ConfigSpace` holds the
candidate values per knob and enumerates/samples points deterministically.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, fields

from ..errors import CgpaError
from ..pipeline.spec import ReplicationPolicy

#: Valid ``DesignPoint.policy`` strings (mirrors ReplicationPolicy values).
POLICIES = tuple(p.value for p in ReplicationPolicy)

#: Default per-point cycle budget; generous for the paper workloads (the
#: slowest backend finishes in well under a million cycles) yet small
#: enough that a livelocked configuration fails fast.  Declared here so the
#: service's contracts need not import :mod:`.evaluate`, which imports them.
DEFAULT_EVAL_MAX_CYCLES = 50_000_000


@dataclass(frozen=True, order=True)
class DesignPoint:
    """One fully-specified accelerator configuration.

    Intentionally permissive: the constructor does not validate ranges, so
    tests (and the robustness machinery) can build known-bad points — e.g.
    a deadlocking ``fifo_depth=0`` — and check the evaluator *captures*
    the failure instead of aborting.  :class:`ConfigSpace` validates the
    values it enumerates.
    """

    policy: str = "p1"
    n_workers: int = 4
    fifo_depth: int = 16
    private_caches: bool = False
    cache_lines: int = 512
    cache_ports: int = 8

    @property
    def compile_key(self) -> tuple[str, int]:
        """Knobs that require a fresh CGPA compilation: partition and workers.

        Points sharing a compile key differ only in knobs that move
        cycles, never values (FIFO depth, cache organisation), which are
        bound on the simulator and the cost model.  So they reuse one
        compiled pipeline
        (:func:`repro.harness.build.interned_pipeline`).  It is not the
        sharding key: the explorer groups work by the pipeline's
        :attr:`~repro.pipeline.CompiledPipeline.design_key`, which
        several compile keys may share.
        """
        return (self.policy, self.n_workers)

    @property
    def label(self) -> str:
        """Short human-readable id, e.g. ``p1/w4/d16/shared/c512x8``."""
        mem = "private" if self.private_caches else "shared"
        return (
            f"{self.policy}/w{self.n_workers}/d{self.fifo_depth}/"
            f"{mem}/c{self.cache_lines}x{self.cache_ports}"
        )

    @property
    def replication_policy(self) -> ReplicationPolicy:
        return ReplicationPolicy(self.policy)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "DesignPoint":
        try:
            return cls(**data)  # the warm-sweep path: today's schema pays nothing
        except TypeError:
            # A newer schema's extra knob: keep the known fields, like
            # EvalResult.from_dict, so the entry loads instead of crashing.
            known = {f.name for f in fields(cls)}
            return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class ConfigSpace:
    """Candidate values per knob; the cartesian product is the grid.

    Knob order below is the enumeration order of :meth:`grid`, which makes
    sweeps (and therefore result files) deterministic.
    """

    policies: list[str] = field(default_factory=lambda: ["p1"])
    n_workers: list[int] = field(default_factory=lambda: [1, 2, 4])
    fifo_depths: list[int] = field(default_factory=lambda: [4, 16])
    private_caches: list[bool] = field(default_factory=lambda: [False])
    cache_lines: list[int] = field(default_factory=lambda: [512])
    cache_ports: list[int] = field(default_factory=lambda: [8])

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        def check(name, values, pred, what):
            if not values:
                raise CgpaError(f"config space: {name} must not be empty")
            bad = [v for v in values if not pred(v)]
            if bad:
                raise CgpaError(f"config space: {name} {bad} invalid ({what})")

        def pos_int(n) -> bool:
            # bool is an int; the service contract rejects it, so do we.
            return isinstance(n, int) and not isinstance(n, bool) and n >= 1

        check("policies", self.policies, lambda p: p in POLICIES,
              f"must be one of {POLICIES}")
        check("n_workers", self.n_workers, pos_int, "must be >= 1")
        check("fifo_depths", self.fifo_depths, pos_int, "must be >= 1")
        check("cache_lines", self.cache_lines,
              lambda n: pos_int(n) and not (n & (n - 1)),
              "must be a power of two")
        check("cache_ports", self.cache_ports, pos_int, "must be >= 1")

    @property
    def axes(self) -> list[tuple[str, list]]:
        """(point field name, candidate values) in enumeration order."""
        return [
            ("policy", self.policies),
            ("n_workers", self.n_workers),
            ("fifo_depth", self.fifo_depths),
            ("private_caches", self.private_caches),
            ("cache_lines", self.cache_lines),
            ("cache_ports", self.cache_ports),
        ]

    @property
    def size(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def grid(self) -> list[DesignPoint]:
        """Every point of the space, in deterministic axis-major order."""
        names = [name for name, _ in self.axes]
        points = []
        for combo in itertools.product(*(values for _, values in self.axes)):
            points.append(DesignPoint(**dict(zip(names, combo))))
        return points

    def sample(self, n: int, seed: int = 0) -> list[DesignPoint]:
        """``n`` distinct points drawn without replacement (seeded)."""
        grid = self.grid()
        if n >= len(grid):
            return grid
        rng = random.Random(seed)
        return rng.sample(grid, n)

    def default_point(self) -> DesignPoint:
        """First value of every axis — the hill-climb seed by default."""
        return self.grid()[0]

    def neighbors(self, point: DesignPoint) -> list[DesignPoint]:
        """One-knob moves to adjacent candidate values (hill-climb moves)."""
        out: list[DesignPoint] = []
        for name, values in self.axes:
            current = getattr(point, name)
            if current not in values:
                continue
            i = values.index(current)
            for j in (i - 1, i + 1):
                if 0 <= j < len(values):
                    out.append(
                        DesignPoint(**{**point.to_dict(), name: values[j]})
                    )
        return out
