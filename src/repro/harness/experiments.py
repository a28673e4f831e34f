"""Experiment drivers: one function per paper table/figure.

Each driver returns structured rows (plus the paper's reported values for
side-by-side comparison) and is wrapped by a benchmark in ``benchmarks/``.
The reproduction criterion is *shape*, not absolute numbers — see
EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..hw import DirectMappedCache
from ..kernels import ALL_KERNELS, PAPER_KERNELS, KernelSpec
from .build import compile_kernel
from .runner import KernelRun, run_backend, run_hardware, run_kernel


def geomean(values) -> float:
    """Geometric mean of the positive entries of ``values``."""

    values = [v for v in values if v and v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_all_kernels(
    n_workers: int = 4,
    max_cycles: int | None = None,
) -> dict[str, KernelRun]:
    """Simulate every kernel on every applicable backend (shared by all
    table/figure drivers so the work is done once).

    Runs :data:`~repro.kernels.PAPER_KERNELS`: the tables and figures
    below compare against the paper's published numbers, which only exist
    for the original five."""
    runs: dict[str, KernelRun] = {}
    for spec in PAPER_KERNELS:
        backends = ["mips", "legup", "cgpa-p1"]
        if spec.supports_p2:
            backends.append("cgpa-p2")
        runs[spec.name] = run_kernel(
            spec, tuple(backends), n_workers=n_workers, max_cycles=max_cycles
        )
    return runs


# ---------------------------------------------------------------------------
# Table 2: pipeline partitions
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    """One kernel's measured vs. paper pipeline shapes."""

    kernel: str
    domain: str
    description: str
    measured_p1: str
    expected_p1: str
    measured_p2: str | None
    expected_p2: str | None

    @property
    def p1_matches(self) -> bool:
        return self.measured_p1 == self.expected_p1

    @property
    def p2_matches(self) -> bool:
        if self.expected_p2 is None:
            return self.measured_p2 is None
        return self.measured_p2 == self.expected_p2


def table2(runs: dict[str, KernelRun]) -> list[Table2Row]:
    """Regenerate Table 2 rows from precomputed kernel runs."""

    rows = []
    for spec in (k for k in ALL_KERNELS if k.name in runs):
        run = runs[spec.name]
        p2 = run.results.get("cgpa-p2")
        rows.append(
            Table2Row(
                kernel=spec.name,
                domain=spec.domain,
                description=spec.description,
                measured_p1=run.results["cgpa-p1"].signature or "?",
                expected_p1=spec.expected_p1,
                measured_p2=p2.signature if p2 else None,
                expected_p2=spec.expected_p2,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 4: loop speedups over the MIPS soft core
# ---------------------------------------------------------------------------


@dataclass
class Fig4Row:
    """One kernel's speedups over the MIPS core (ours vs. paper)."""

    kernel: str
    legup_speedup: float
    cgpa_speedup: float
    paper_legup: float | None
    paper_cgpa: float | None


@dataclass
class Fig4Data:
    """All Figure 4 rows plus geomean accessors."""

    rows: list[Fig4Row]

    @property
    def geomean_legup(self) -> float:
        return geomean([r.legup_speedup for r in self.rows])

    @property
    def geomean_cgpa(self) -> float:
        return geomean([r.cgpa_speedup for r in self.rows])

    @property
    def geomean_cgpa_over_legup(self) -> float:
        return geomean([r.cgpa_speedup / r.legup_speedup for r in self.rows])


def figure4(runs: dict[str, KernelRun]) -> Fig4Data:
    """Regenerate Figure 4 data from precomputed kernel runs."""

    rows = []
    for spec in (k for k in ALL_KERNELS if k.name in runs):
        run = runs[spec.name]
        rows.append(
            Fig4Row(
                kernel=spec.name,
                legup_speedup=run.speedup("legup"),
                cgpa_speedup=run.speedup("cgpa-p1"),
                paper_legup=spec.paper.speedup_legup if spec.paper else None,
                paper_cgpa=spec.paper.speedup_cgpa if spec.paper else None,
            )
        )
    return Fig4Data(rows)


# ---------------------------------------------------------------------------
# Table 3: area, power, energy, energy efficiency
# ---------------------------------------------------------------------------


@dataclass
class Table3Row:
    """One (kernel, config) row of Table 3 with paper values."""

    kernel: str
    config: str  # 'Legup' | 'CGPA (P1)' | 'CGPA (P2)'
    aluts: int
    power_mw: float
    energy_uj: float
    efficiency: float | None
    paper_aluts: int | None = None
    paper_power_mw: float | None = None
    paper_energy_uj: float | None = None


def table3(runs: dict[str, KernelRun]) -> list[Table3Row]:
    """Regenerate Table 3 rows from precomputed kernel runs."""

    rows: list[Table3Row] = []
    for spec in (k for k in ALL_KERNELS if k.name in runs):
        run = runs[spec.name]
        paper = spec.paper
        configs = [("legup", "Legup"), ("cgpa-p1", "CGPA (P1)")]
        if "cgpa-p2" in run.results:
            configs.append(("cgpa-p2", "CGPA (P2)"))
        for backend, label in configs:
            result = run.results[backend]
            paper_vals = (None, None, None)
            if paper:
                if backend == "legup":
                    paper_vals = (
                        paper.legup_aluts, paper.legup_power_mw, paper.legup_energy_uj,
                    )
                elif backend == "cgpa-p1":
                    paper_vals = (
                        paper.cgpa_aluts, paper.cgpa_power_mw, paper.cgpa_energy_uj,
                    )
                elif backend == "cgpa-p2":
                    paper_vals = (
                        paper.cgpa_p2_aluts, None, paper.cgpa_p2_energy_uj,
                    )
            rows.append(
                Table3Row(
                    kernel=spec.name,
                    config=label,
                    aluts=result.aluts or 0,
                    power_mw=result.power_mw or 0.0,
                    energy_uj=result.energy_uj or 0.0,
                    efficiency=run.energy_efficiency(backend),
                    paper_aluts=paper_vals[0],
                    paper_power_mw=paper_vals[1],
                    paper_energy_uj=paper_vals[2],
                )
            )
    return rows


def alut_overhead_geomean(rows: list[Table3Row]) -> float:
    """CGPA-P1 over LegUp ALUT ratio (paper: ~4.1x)."""
    by_kernel: dict[str, dict[str, Table3Row]] = {}
    for row in rows:
        by_kernel.setdefault(row.kernel, {})[row.config] = row
    ratios = [
        k["CGPA (P1)"].aluts / k["Legup"].aluts
        for k in by_kernel.values()
        if "CGPA (P1)" in k and k["Legup"].aluts
    ]
    return geomean(ratios)


def energy_overhead_geomean(rows: list[Table3Row]) -> float:
    """CGPA-P1 over LegUp energy ratio (paper: ~1.20x, i.e. 20%)."""
    by_kernel: dict[str, dict[str, Table3Row]] = {}
    for row in rows:
        by_kernel.setdefault(row.kernel, {})[row.config] = row
    ratios = [
        k["CGPA (P1)"].energy_uj / k["Legup"].energy_uj
        for k in by_kernel.values()
        if "CGPA (P1)" in k and k["Legup"].energy_uj
    ]
    return geomean(ratios)


# ---------------------------------------------------------------------------
# Section 4.2 "Tradeoff": P1 vs P2 for em3d and 1D-Gaussblur
# ---------------------------------------------------------------------------


@dataclass
class TradeoffRow:
    """P1-vs-P2 cycles and energy for one kernel."""

    kernel: str
    p1_cycles: int
    p2_cycles: int
    p1_energy_uj: float
    p2_energy_uj: float
    #: The paper reports P1 outperforming P2 by 6% (em3d) / 15% (blur) and
    #: using 11% / 14% less energy.
    paper_perf_gain_pct: float
    paper_energy_gain_pct: float

    @property
    def perf_gain_pct(self) -> float:
        return 100.0 * (self.p2_cycles / self.p1_cycles - 1.0)

    @property
    def energy_gain_pct(self) -> float:
        return 100.0 * (1.0 - self.p1_energy_uj / self.p2_energy_uj)


def tradeoff(runs: dict[str, KernelRun]) -> list[TradeoffRow]:
    """Regenerate the Section 4.2 P1/P2 tradeoff comparison."""

    paper_numbers = {"em3d": (6.0, 11.0), "1D-Gaussblur": (15.0, 14.0)}
    rows = []
    for name, (perf, energy) in paper_numbers.items():
        run = runs[name]
        if "cgpa-p2" not in run.results:
            continue
        p1 = run.results["cgpa-p1"]
        p2 = run.results["cgpa-p2"]
        rows.append(
            TradeoffRow(
                kernel=name,
                p1_cycles=p1.cycles,
                p2_cycles=p2.cycles,
                p1_energy_uj=p1.energy_uj or 0.0,
                p2_energy_uj=p2.energy_uj or 0.0,
                paper_perf_gain_pct=perf,
                paper_energy_gain_pct=energy,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Appendix B.1: scalability with parallel-worker count
# ---------------------------------------------------------------------------


@dataclass
class ScalabilityPoint:
    """Cycles for one (kernel, worker count) configuration."""

    kernel: str
    n_workers: int
    cycles: int
    speedup_vs_one: float = 0.0


def scalability(
    spec: KernelSpec,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    max_cycles: int | None = None,
) -> list[ScalabilityPoint]:
    """Sweep the parallel-worker count for one kernel (App. B.1)."""

    points = []
    for n in worker_counts:
        result = run_backend(spec, "cgpa-p1", n_workers=n, max_cycles=max_cycles)
        points.append(ScalabilityPoint(spec.name, n, result.cycles))
    base = points[0].cycles
    for p in points:
        p.speedup_vs_one = base / p.cycles
    return points


# ---------------------------------------------------------------------------
# Ablations: FIFO depth, miss latency, replication policy
# ---------------------------------------------------------------------------


@dataclass
class AblationPoint:
    """One (kernel, knob, value) -> cycles measurement."""

    kernel: str
    knob: str
    value: object
    cycles: int


def fifo_depth_ablation(
    spec: KernelSpec, depths: tuple[int, ...] = (1, 2, 4, 16, 64)
) -> list[AblationPoint]:
    """Variable-latency tolerance (Section 2.2): deeper FIFOs decouple the
    stages; depth 1 effectively lock-steps them.  One compile serves
    every depth: depth belongs to the simulated machine."""
    compiled = compile_kernel(spec)
    return [
        AblationPoint(
            spec.name, "fifo_depth", d,
            run_hardware(
                spec, "cgpa-p1", compiled, DirectMappedCache(ports=8), fifo_depth=d
            ).cycles,
        )
        for d in depths
    ]


def miss_latency_ablation(
    spec: KernelSpec, penalties: tuple[int, ...] = (8, 24, 64)
) -> list[AblationPoint]:
    """How each backend tolerates slower memory (the pipelining benefit)."""
    points = []
    for penalty in penalties:
        for backend in ("legup", "cgpa-p1"):
            result = run_backend(
                spec, backend, cache_kwargs={"miss_penalty": penalty}
            )
            points.append(
                AblationPoint(spec.name, f"{backend}:miss_penalty", penalty, result.cycles)
            )
    return points


def replication_policy_ablation(spec: KernelSpec) -> list[AblationPoint]:
    """P1 vs P2 vs never-replicate (NONE) on one kernel."""
    points = []
    for backend in ("cgpa-p1", "cgpa-none") + (
        ("cgpa-p2",) if spec.supports_p2 else ()
    ):
        result = run_backend(spec, backend)
        points.append(
            AblationPoint(spec.name, "policy", backend.split("-")[1], result.cycles)
        )
    return points


def prefetch_ablation(
    specs: list[KernelSpec] | None = None,
) -> list[AblationPoint]:
    """Next-line prefetching (Appendix B.2 future work).

    Streaming kernels (1D-Gaussblur's image rows) should benefit; the
    pointer-chasing em3d traversal should be essentially unaffected —
    exactly the asymmetry that makes the paper call prefetching a
    *complementary* technique.
    """
    from ..kernels import EM3D, GAUSSBLUR

    specs = specs if specs is not None else [GAUSSBLUR, EM3D]
    points = []
    for spec in specs:
        for prefetch in (False, True):
            result = run_backend(
                spec, "cgpa-p1",
                cache_kwargs={"next_line_prefetch": prefetch},
            )
            label = "on" if prefetch else "off"
            points.append(
                AblationPoint(spec.name, f"prefetch:{label}", prefetch, result.cycles)
            )
    return points


def memory_system_ablation(
    spec: KernelSpec, worker_counts: tuple[int, ...] = (4, 8)
) -> list[AblationPoint]:
    """Shared 8-port cache vs per-worker private slices (Appendix B.1).

    The paper argues the shared-memory overhead grows with the worker
    count and that "private cache and memory partition techniques" fix
    it; this ablation measures both organisations at increasing worker
    counts.  ``private_caches`` is a system-level switch ``run_backend``
    does not expose, so this drives the shared run path directly.
    """
    points = []
    for n_workers in worker_counts:
        compiled = compile_kernel(spec, n_workers=n_workers)
        for private in (False, True):
            run = run_hardware(
                spec, "cgpa-p1", compiled,
                DirectMappedCache(ports=8), private_caches=private,
            )
            label = "private" if private else "shared"
            points.append(
                AblationPoint(
                    spec.name, f"mem:{label}", n_workers, run.cycles
                )
            )
    return points
