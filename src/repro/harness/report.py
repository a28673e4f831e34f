"""Plain-text report formatting for the experiment drivers."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..telemetry.events import ALL_CATEGORIES
from .experiments import (
    Fig4Data,
    Table2Row,
    Table3Row,
    TradeoffRow,
    ScalabilityPoint,
    alut_overhead_geomean,
    energy_overhead_geomean,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..dse.explore import SweepResult
    from ..hw.system import SimReport
    from ..telemetry.bottleneck import BottleneckReport


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_table2(rows: list[Table2Row]) -> str:
    """Render the Table 2 (pipeline partitions) comparison as text."""

    body = [
        [
            r.kernel,
            r.domain,
            r.measured_p1,
            r.expected_p1,
            "yes" if r.p1_matches else "NO",
            r.measured_p2 or "-",
            r.expected_p2 or "-",
        ]
        for r in rows
    ]
    table = _table(
        ["Benchmark", "Domain", "P1 (ours)", "P1 (paper)", "match",
         "P2 (ours)", "P2 (paper)"],
        body,
    )
    return "Table 2: pipeline partitions\n" + table


def format_figure4(data: Fig4Data) -> str:
    """Render the Figure 4 (speedup) comparison as text."""

    body = []
    for r in data.rows:
        body.append([
            r.kernel,
            f"{r.legup_speedup:.2f}x",
            f"{r.paper_legup:.2f}x" if r.paper_legup else "-",
            f"{r.cgpa_speedup:.2f}x",
            f"{r.paper_cgpa:.2f}x" if r.paper_cgpa else "-",
        ])
    body.append([
        "GeoMean",
        f"{data.geomean_legup:.2f}x",
        "1.85x",
        f"{data.geomean_cgpa:.2f}x",
        "6.00x",
    ])
    table = _table(
        ["Benchmark", "Legup (ours)", "Legup (paper)", "CGPA (ours)",
         "CGPA (paper)"],
        body,
    )
    note = (
        f"\nCGPA over Legup: {data.geomean_cgpa_over_legup:.2f}x geomean "
        f"(paper: 3.3x, per-kernel 3.0x-3.8x)"
    )
    return "Figure 4: loop speedup over the MIPS soft core\n" + table + note


def format_table3(rows: list[Table3Row]) -> str:
    """Render the Table 3 (area/power/energy) comparison as text."""

    body = []
    for r in rows:
        body.append([
            r.kernel,
            r.config,
            str(r.aluts),
            str(r.paper_aluts) if r.paper_aluts else "-",
            f"{r.power_mw:.0f}",
            f"{r.paper_power_mw:.0f}" if r.paper_power_mw else "-",
            f"{r.energy_uj:.2f}",
            f"{r.paper_energy_uj:.2f}" if r.paper_energy_uj else "-",
            f"{r.efficiency:.1f}" if r.efficiency else "-",
        ])
    table = _table(
        ["Benchmark", "Type", "ALUT", "(paper)", "mW", "(paper)",
         "uJ", "(paper)", "eff"],
        body,
    )
    notes = (
        f"\nALUT overhead CGPA/Legup: {alut_overhead_geomean(rows):.1f}x geomean "
        f"(paper: ~4.1x)"
        f"\nEnergy overhead CGPA/Legup: "
        f"{100 * (energy_overhead_geomean(rows) - 1):.0f}% geomean (paper: ~20%)"
    )
    return "Table 3: area / power / energy\n" + table + notes


def format_tradeoff(rows: list[TradeoffRow]) -> str:
    """Render the P1-vs-P2 tradeoff comparison as text."""

    body = [
        [
            r.kernel,
            str(r.p1_cycles),
            str(r.p2_cycles),
            f"{r.perf_gain_pct:+.0f}%",
            f"+{r.paper_perf_gain_pct:.0f}%",
            f"{r.energy_gain_pct:+.0f}%",
            f"+{r.paper_energy_gain_pct:.0f}%",
        ]
        for r in rows
    ]
    table = _table(
        ["Benchmark", "P1 cycles", "P2 cycles", "P1 wins by", "(paper)",
         "P1 saves energy", "(paper)"],
        body,
    )
    return "Tradeoff: pipelining (P1) vs replicated data-level parallelism (P2)\n" + table


def format_scalability(points: list[ScalabilityPoint]) -> str:
    """Render the worker-scalability sweep as text."""

    body = [
        [p.kernel, str(p.n_workers), str(p.cycles), f"{p.speedup_vs_one:.2f}x"]
        for p in points
    ]
    table = _table(["Benchmark", "Workers", "Cycles", "Speedup vs 1"], body)
    return "Appendix B.1: parallel-worker scalability\n" + table


def format_stall_breakdown(sim: "SimReport", kernel: str | None = None) -> str:
    """Render one run's per-worker stall attribution as a table.

    Each row partitions that worker's ``sim.cycles`` clock edges into the
    six cycle categories (so every row's counts sum to the same total).
    """
    headers = ["Worker", "cycles"] + [c.value for c in ALL_CATEGORIES]
    body = []
    for name, counts in sim.stall_breakdown.items():
        total = sum(counts.values())
        body.append(
            [name, str(total)]
            + [
                f"{counts[c.value]} ({100 * counts[c.value] / total:.0f}%)"
                if total else "0"
                for c in ALL_CATEGORIES
            ]
        )
    title = "Per-worker stall breakdown"
    if kernel:
        title += f" ({kernel})"
    return title + "\n" + _table(headers, body)


def format_bottlenecks(analysis: "BottleneckReport") -> str:
    """Render a bottleneck analysis (critical stage + recommendations).

    Companion to :func:`format_stall_breakdown` (which renders the full
    table); this part only summarises — pair them for a complete report.
    """
    lines = []
    if analysis.critical_worker is not None:
        lines.append(
            f"Critical stage: {analysis.critical_worker} "
            f"({analysis.worker(analysis.critical_worker).stall_cycles} "
            f"stall cycles of {analysis.total_cycles} total)"
        )
    else:
        lines.append("Critical stage: none (no worker stalled)")
    if analysis.recommendations:
        lines.append("Recommendations:")
        lines.extend(f"  - {r}" for r in analysis.recommendations)
    return "\n".join(lines)


def format_pareto(sweep: "SweepResult") -> str:
    """Render a design-space sweep: header, Pareto table, dominated tally.

    ``sweep`` is a :class:`repro.dse.explore.SweepResult` (typed loosely
    to keep this module import-light; :mod:`repro.dse` imports the
    harness runner, not the other way around).
    """
    frontier = sweep.frontier()
    statuses = sweep.status_counts()
    total = sweep.cache_hits + sweep.cache_misses
    lines = [
        f"Design-space exploration: {sweep.kernel} "
        f"({sweep.strategy} strategy, {len(sweep.results)} points)",
        "  status: " + ", ".join(f"{k}={v}" for k, v in statuses.items()),
    ]
    if total:
        full = sweep.cache_misses - sweep.derived
        lines.append(
            f"  result cache: {sweep.cache_hits}/{total} hits "
            f"({100 * sweep.hit_rate:.0f}%); {full} simulated in full, "
            f"{sweep.derived} derived"
        )
    lines.append("")
    lines.append("Pareto frontier over (cycles, total_aluts, energy_uj):")
    body = [
        [
            r.point.label,
            r.signature or "?",
            str(r.cycles),
            str(r.total_aluts),
            f"{r.energy_uj:.3f}",
            f"{r.power_mw:.1f}",
            f"{100 * r.cache_hit_rate:.1f}%" if r.cache_hit_rate is not None
            else "-",
        ]
        for r in frontier
    ]
    table = _table(
        ["Config", "Pipeline", "Cycles", "ALUTs", "Energy (uJ)",
         "Power (mW)", "D$ hit"],
        body,
    )
    lines.append(table if frontier else "  (empty: no successful points)")
    dominated = statuses.get("ok", 0) - len(frontier)
    lines.append("")
    lines.append(
        f"{len(frontier)} frontier / {dominated} dominated / "
        f"{len(sweep.results) - statuses.get('ok', 0)} failed points"
    )
    return "\n".join(lines)
