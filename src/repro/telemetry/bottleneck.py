"""Pipeline bottleneck analysis over stall telemetry.

Post-processes a simulation (a :class:`~repro.hw.system.SimReport`) into
a per-stage stall breakdown, identifies the *critical* stage — the worker
losing the most cycles to genuine stalls (cache + FIFO; join/idle are
symptoms of someone else's slowness) — and derives concrete tuning
recommendations: deepen a saturating FIFO, replicate a compute-bound
stage, or attack memory latency, mirroring the stall-driven buffer
sizing methodology of the dataflow-HLS literature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .events import ALL_CATEGORIES, CycleCategory

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.system import SimReport

#: A stall source must cost at least this fraction of total cycles to be
#: worth a recommendation (below it, the pipeline is considered balanced).
SIGNIFICANCE = 0.05


@dataclass
class WorkerBreakdown:
    """Where one worker's cycles went, by category."""

    worker: str
    cycles: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.cycles.values())

    def get(self, category: CycleCategory) -> int:
        return self.cycles.get(category.value, 0)

    def fraction(self, category: CycleCategory) -> float:
        total = self.total
        return self.get(category) / total if total else 0.0

    @property
    def stall_cycles(self) -> int:
        """Cycles lost to this worker's *own* stalls (cache + FIFO)."""
        return (
            self.get(CycleCategory.CACHE)
            + self.get(CycleCategory.FIFO_FULL)
            + self.get(CycleCategory.FIFO_EMPTY)
        )

    @property
    def dominant_stall(self) -> CycleCategory | None:
        stalls = [
            CycleCategory.CACHE,
            CycleCategory.FIFO_FULL,
            CycleCategory.FIFO_EMPTY,
        ]
        best = max(stalls, key=self.get)
        return best if self.get(best) else None


@dataclass
class FifoDiagnosis:
    """Stall/occupancy summary for one FIFO buffer."""

    fifo: str
    depth: int
    max_occupancy: int
    full_stall_cycles: int
    empty_stall_cycles: int

    @property
    def saturated(self) -> bool:
        return self.depth > 0 and self.max_occupancy >= self.depth


@dataclass
class BottleneckReport:
    """Outcome of one bottleneck analysis."""

    total_cycles: int
    workers: list[WorkerBreakdown]
    fifos: list[FifoDiagnosis] = field(default_factory=list)
    critical_worker: str | None = None
    recommendations: list[str] = field(default_factory=list)

    def worker(self, name: str) -> WorkerBreakdown:
        for breakdown in self.workers:
            if breakdown.worker == name:
                return breakdown
        raise KeyError(name)

    def format(self) -> str:
        """Plain-text rendering (the trace CLI's analysis section)."""
        headers = ["worker", "cycles"] + [c.value for c in ALL_CATEGORIES]
        rows = []
        for b in sorted(self.workers, key=lambda b: -b.stall_cycles):
            mark = " *" if b.worker == self.critical_worker else ""
            rows.append(
                [b.worker + mark, str(b.total)]
                + [
                    f"{b.get(c)} ({100 * b.fraction(c):.0f}%)"
                    for c in ALL_CATEGORIES
                ]
            )
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        fmt = lambda row: "  ".join(
            cell.ljust(w) for cell, w in zip(row, widths)
        ).rstrip()
        lines = ["Per-worker stall breakdown (* = critical stage)"]
        lines.append(fmt(headers))
        lines.append(fmt(["-" * w for w in widths]))
        lines.extend(fmt(row) for row in rows)
        if self.recommendations:
            lines.append("")
            lines.append("Recommendations:")
            lines.extend(f"  - {r}" for r in self.recommendations)
        return "\n".join(lines)


def analyze(sim: "SimReport") -> BottleneckReport:
    """Analyze one simulated run.

    The breakdown comes from the simulator's per-worker counters (always
    available, even with the :data:`~repro.telemetry.events.NULL_SINK`).
    """
    workers = [
        WorkerBreakdown(name, dict(breakdown))
        for name, breakdown in sim.stall_breakdown.items()
    ]
    fifos = [
        FifoDiagnosis(
            fifo=name,
            depth=getattr(stats, "depth", 0),
            max_occupancy=stats.max_occupancy,
            full_stall_cycles=stats.full_stall_cycles,
            empty_stall_cycles=stats.empty_stall_cycles,
        )
        for name, stats in sim.fifo_stats.items()
    ]
    report = BottleneckReport(
        total_cycles=sim.cycles, workers=workers, fifos=fifos
    )
    stalled = [w for w in workers if w.stall_cycles]
    if stalled:
        report.critical_worker = max(stalled, key=lambda w: w.stall_cycles).worker
    report.recommendations = _recommend(report)
    return report


def _recommend(report: BottleneckReport) -> list[str]:
    """Turn the breakdown into concrete FIFO-depth / replication advice."""
    out: list[str] = []
    total = max(report.total_cycles, 1)

    for fifo in report.fifos:
        if fifo.full_stall_cycles / total >= SIGNIFICANCE and fifo.saturated:
            out.append(
                f"{fifo.fifo} saturates (max occupancy {fifo.max_occupancy}/"
                f"{fifo.depth}, {fifo.full_stall_cycles} full-stall cycles): "
                f"deepen this FIFO to absorb bursts, or speed up / replicate "
                f"the consumer stage draining it"
            )

    if report.critical_worker is None:
        out.append(
            "no worker loses significant cycles to stalls: the pipeline is "
            "balanced; end-to-end time is bound by the slowest stage's compute"
        )
        return out

    critical = report.worker(report.critical_worker)
    dominant = critical.dominant_stall
    if dominant is None:
        return out
    frac = critical.fraction(dominant)
    if dominant is CycleCategory.CACHE:
        out.append(
            f"{critical.worker} is memory-bound ({100 * frac:.0f}% of cycles "
            f"stalled on the cache): consider private cache slices "
            f"(private_caches=True), next-line prefetch, or moving its loads "
            f"into an earlier stage so FIFO slack hides the latency"
        )
    elif dominant is CycleCategory.FIFO_FULL:
        out.append(
            f"{critical.worker} blocks pushing downstream ({100 * frac:.0f}% "
            f"of cycles on full FIFOs): the stage after it is the real "
            f"bottleneck — replicate that stage (raise n_workers) or deepen "
            f"the connecting FIFO"
        )
    elif dominant is CycleCategory.FIFO_EMPTY:
        out.append(
            f"{critical.worker} starves on empty FIFOs ({100 * frac:.0f}% of "
            f"cycles): the producer stage upstream limits throughput — "
            f"replicate or split the upstream stage, or deepen upstream "
            f"FIFOs if production is bursty"
        )
    if (
        critical.fraction(CycleCategory.COMPUTE) >= 0.5
        and critical.stall_cycles / total < SIGNIFICANCE
    ):
        out.append(
            f"{critical.worker} is compute-bound: replicate the stage or "
            f"re-partition to split its SCCs across more stages"
        )
    return out
