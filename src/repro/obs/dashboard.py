"""Dependency-free static HTML dashboard over an envelope journal.

:func:`render_dashboard` turns an :class:`~repro.obs.query.EnvelopeSet`
into one self-contained HTML page — inline CSS, a few lines of inline JS
for table sorting, inline SVG sparklines for bench trends, no external
fetches of any kind — so the file renders anywhere (CI artifact viewer,
``file://``, an air-gapped machine).

Sections, each driven purely by envelope fields:

* overview — run counts by kind, journal time range, validation errors;
* simulations — latest cycles + stall-category bars per kernel/engine;
* engine equivalence — kernels × engines cycle matrix, divergence
  flagged (the three simulator engines must agree bit-exactly);
* DSE — per-sweep status counts, frontier size and best point;
* faults — verdict counters per sweep;
* cosim — rounds/instances verdicts;
* service — status tally of the jobs a service executed;
* bench — chronological sparkline per benchmark figure.
"""

from __future__ import annotations

import html

from .emit import JOB_KIND_OF
from .query import EnvelopeSet

#: Stall-category display order and colors (matches telemetry docs).
_STALL_COLORS = (
    ("active", "#4c9f70"),
    ("mem_stall", "#d1495b"),
    ("fifo_full", "#edae49"),
    ("fifo_empty", "#00798c"),
    ("join_stall", "#9656a1"),
    ("idle", "#b8b8b8"),
)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1b1b1b; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem;
     border-bottom: 1px solid #ddd; padding-bottom: .25rem; }
table { border-collapse: collapse; margin: .75rem 0; font-size: .85rem; }
th, td { border: 1px solid #ddd; padding: .3rem .6rem; text-align: left; }
th { background: #f5f5f5; cursor: pointer; user-select: none; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #2e7d32; font-weight: 600; }
.bad { color: #c62828; font-weight: 600; }
.muted { color: #777; }
.bar { display: flex; height: .9rem; min-width: 10rem;
       border-radius: 2px; overflow: hidden; }
.bar span { display: block; height: 100%; }
.legend span { display: inline-block; margin-right: .9rem;
               font-size: .8rem; }
.legend i { display: inline-block; width: .7rem; height: .7rem;
            margin-right: .3rem; border-radius: 2px; }
code { background: #f2f2f2; padding: 0 .25rem; border-radius: 3px; }
.errors { background: #fff3f3; border: 1px solid #e5b4b4;
          padding: .5rem .75rem; border-radius: 4px; }
"""

# Click a header to sort its column; numeric when every cell parses.
_JS = """
document.querySelectorAll('th').forEach(function (th) {
  th.addEventListener('click', function () {
    var table = th.closest('table');
    var index = Array.prototype.indexOf.call(th.parentNode.children, th);
    var rows = Array.prototype.slice.call(
      table.querySelectorAll('tbody tr'));
    var dir = th.dataset.dir === 'asc' ? -1 : 1;
    th.dataset.dir = dir === 1 ? 'asc' : 'desc';
    rows.sort(function (a, b) {
      var x = a.children[index].textContent.trim();
      var y = b.children[index].textContent.trim();
      var nx = parseFloat(x), ny = parseFloat(y);
      if (!isNaN(nx) && !isNaN(ny)) return dir * (nx - ny);
      return dir * x.localeCompare(y);
    });
    rows.forEach(function (row) {
      table.querySelector('tbody').appendChild(row); });
  });
});
"""


def _esc(value) -> str:
    return html.escape("-" if value is None else str(value))


def _table(headers: list[str], rows: list[list[str]], numeric=()) -> str:
    """Rows are pre-escaped HTML cell strings."""
    def cell(tag, index, content):
        cls = ' class="num"' if index in numeric else ""
        return f"<{tag}{cls}>{content}</{tag}>"

    head = "".join(cell("th", i, _esc(h)) for i, h in enumerate(headers))
    body = "".join(
        "<tr>" + "".join(cell("td", i, c) for i, c in enumerate(row)) + "</tr>"
        for row in rows
    )
    return (
        f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
    )


def _stall_bar(stall_cycles: dict[str, int]) -> str:
    total = sum(stall_cycles.values())
    if not total:
        return '<span class="muted">no telemetry</span>'
    parts = []
    for category, color in _STALL_COLORS:
        count = stall_cycles.get(category, 0)
        if not count:
            continue
        pct = 100 * count / total
        parts.append(
            f'<span style="width:{pct:.2f}%;background:{color}" '
            f'title="{_esc(category)}: {count} ({pct:.0f}%)"></span>'
        )
    return f'<div class="bar">{"".join(parts)}</div>'


def _stall_legend() -> str:
    items = "".join(
        f'<span><i style="background:{color}"></i>{_esc(name)}</span>'
        for name, color in _STALL_COLORS
    )
    return f'<p class="legend">{items}</p>'


def _sparkline(values: list[float], width=220, height=36) -> str:
    """Inline SVG polyline over chronological values."""
    if not values:
        return '<span class="muted">no data</span>'
    if len(values) == 1:
        values = values * 2
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 4 - (v - low) / span * (height - 8):.1f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#00798c" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def _status_cell(env) -> str:
    cls = "ok" if env.ok else "bad"
    return f'<span class="{cls}">{_esc(env.status)}</span>'


# -- sections ---------------------------------------------------------------


def _overview_section(envelopes: EnvelopeSet) -> str:
    counts = {kind: 0 for kind in envelopes.kinds()}
    for env in envelopes:
        counts[env.kind] += 1
    rows = [[_esc(kind), str(count)] for kind, count in sorted(counts.items())]
    parts = [
        "<h2>Overview</h2>",
        f"<p>{len(envelopes)} runs from "
        f"<code>{_esc(envelopes.source)}</code>",
    ]
    if len(envelopes):
        parts.append(
            f" · {_esc(envelopes[0].timestamp)} — "
            f"{_esc(envelopes[len(envelopes) - 1].timestamp)}"
        )
    parts.append("</p>")
    if rows:
        parts.append(_table(["kind", "runs"], rows, numeric={1}))
    if envelopes.errors:
        items = "".join(f"<li>{_esc(e)}</li>" for e in envelopes.errors)
        parts.append(
            f'<div class="errors"><strong>{len(envelopes.errors)} invalid '
            f"record(s) skipped</strong><ul>{items}</ul></div>"
        )
    return "".join(parts)


def _sim_section(envelopes: EnvelopeSet) -> str:
    sims = envelopes.filter(kind="sim")
    if not len(sims):
        return ""
    rows = []
    for (kernel, engine), group in sims.group_by("kernel", "engine").items():
        env = group[len(group) - 1]
        rows.append([
            _esc(kernel),
            _esc(engine),
            _esc(env.cycles),
            _stall_bar(env.stall_cycles),
            _esc(env.total_aluts),
            _esc(None if env.energy_uj is None else f"{env.energy_uj:.3f}"),
            str(len(group)),
        ])
    return (
        "<h2>Simulations</h2>"
        + _stall_legend()
        + _table(
            ["kernel", "engine", "cycles", "stall breakdown", "ALUTs",
             "energy (uJ)", "runs"],
            rows, numeric={2, 4, 5, 6},
        )
    )


def _equivalence_section(envelopes: EnvelopeSet) -> str:
    """Kernels × engines latest-cycles matrix; engines must agree."""
    sims = envelopes.filter(kind="sim")
    engines = sims.engines()
    if len(sims) == 0 or len(engines) < 2:
        return ""
    rows = []
    for kernel in sims.kernels():
        cells = [_esc(kernel)]
        cycles = []
        for engine in engines:
            group = sims.filter(kernel=kernel, engine=engine)
            if len(group):
                value = group[len(group) - 1].cycles
                cycles.append(value)
                cells.append(_esc(value))
            else:
                cells.append('<span class="muted">-</span>')
        agree = len({c for c in cycles if c is not None}) <= 1
        cells.append(
            '<span class="ok">agree</span>' if agree
            else '<span class="bad">DIVERGE</span>'
        )
        rows.append(cells)
    return (
        "<h2>Engine equivalence</h2>"
        "<p>Latest cycle count per kernel and engine; all engines must "
        "produce bit-identical runs.</p>"
        + _table(
            ["kernel"] + engines + ["verdict"],
            rows, numeric=set(range(1, len(engines) + 1)),
        )
    )


def _dse_section(envelopes: EnvelopeSet) -> str:
    sweeps = envelopes.filter(kind="dse-sweep")
    if not len(sweeps):
        return ""
    rows = []
    for env in sweeps:
        verdicts = env.verdicts
        statuses = ", ".join(
            f"{k}={v}"
            for k, v in sorted(verdicts.get("status_counts", {}).items())
        )
        rows.append([
            _esc(env.kernel),
            _esc(env.extra.get("strategy")),
            _esc(env.engine),
            _esc(verdicts.get("n_points")),
            _esc(statuses),
            _esc(verdicts.get("frontier_size")),
            _esc(env.cycles),
            _esc(env.total_aluts),
            _esc(None if env.energy_uj is None else f"{env.energy_uj:.3f}"),
        ])
    return "<h2>Design-space sweeps</h2>" + _table(
        ["kernel", "strategy", "engine", "points", "status", "frontier",
         "best cycles", "best ALUTs", "best energy (uJ)"],
        rows, numeric={3, 5, 6, 7, 8},
    )


def _faults_section(envelopes: EnvelopeSet) -> str:
    sweeps = envelopes.filter(kind="faults")
    if not len(sweeps):
        return ""
    rows = []
    for env in sweeps:
        v = env.verdicts
        triggered = v.get("corruptions_triggered", 0)
        detected = v.get("corruptions_detected", 0)
        rows.append([
            _esc(env.kernel),
            _esc(env.engine),
            _esc(env.extra.get("seed")),
            _esc(env.extra.get("n_plans")),
            _esc(v.get("timing_correct")),
            _esc(v.get("hangs_diagnosed")),
            f"{_esc(detected)}/{_esc(triggered)}",
            _esc(env.cycles),
        ])
    return "<h2>Fault sweeps</h2>" + _table(
        ["kernel", "engine", "seed", "plans/class", "timing correct",
         "hangs diagnosed", "corruptions detected", "baseline cycles"],
        rows, numeric={2, 3, 4, 5, 7},
    )


def _cosim_section(envelopes: EnvelopeSet) -> str:
    runs = envelopes.filter(kind="cosim")
    if not len(runs):
        return ""
    rows = []
    for env in runs:
        v = env.verdicts
        rows.append([
            _esc(env.kernel),
            _esc(env.extra.get("policy")),
            _status_cell(env),
            f"{_esc(v.get('rounds_ok'))}/{_esc(v.get('rounds'))}",
            _esc(v.get("instances")),
            _esc(env.cycles),
        ])
    return "<h2>RTL co-simulation</h2>" + _table(
        ["kernel", "policy", "verdict", "rounds ok", "instances", "cycles"],
        rows, numeric={4, 5},
    )


def _service_section(envelopes: EnvelopeSet) -> str:
    """Jobs a service executed: the record of the job's kind with the
    queue's ``job_id`` in ``extra``, or an older ``service-job`` record."""
    tally: dict[tuple, int] = {}
    for env in envelopes:
        if env.kind == "service-job":
            key = (env.verdicts.get("job_kind"), env.status)
        elif "job_id" in env.extra:
            key = (JOB_KIND_OF.get(env.kind), env.status)
        else:
            continue
        tally[key] = tally.get(key, 0) + 1
    if not tally:
        return ""
    rows = [
        [_esc(job_kind), _esc(status), str(count)]
        for (job_kind, status), count in sorted(
            tally.items(), key=lambda item: tuple(map(str, item[0]))
        )
    ]
    return "<h2>Service jobs</h2>" + _table(
        ["job kind", "status", "count"], rows, numeric={2}
    )


def _bench_section(envelopes: EnvelopeSet) -> str:
    benches = envelopes.filter(kind="bench")
    if not len(benches):
        return ""
    figures: dict[str, list] = {}
    for env in benches:
        figures.setdefault(str(env.extra.get("figure")), []).append(env)
    rows = []
    for figure, group in sorted(figures.items()):
        metric, values = _bench_trend(group)
        rows.append([
            _esc(figure),
            str(len(group)),
            _esc(metric),
            _esc(None if not values else round(values[-1], 4)),
            _sparkline(values),
        ])
    return (
        "<h2>Benchmarks</h2>"
        "<p>Chronological trend of each figure's headline metric.</p>"
        + _table(
            ["figure", "runs", "metric", "latest", "trend"],
            rows, numeric={1, 3},
        )
    )


def _bench_trend(group) -> tuple[str | None, list[float]]:
    """The first scalar payload key shared by every run, chronologically."""
    candidates = [
        key
        for key, value in sorted(group[0].payload.items())
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    for key in candidates:
        values = [
            env.payload.get(key)
            for env in group
            if isinstance(env.payload.get(key), (int, float))
            and not isinstance(env.payload.get(key), bool)
        ]
        if len(values) == len(group):
            return key, [float(v) for v in values]
    return None, []


def render_dashboard(
    envelopes: EnvelopeSet, title: str = "CGPA run dashboard"
) -> str:
    """Render the journal as one self-contained HTML page."""
    # A service job that ended without a report (``extra["error"]``) is
    # tallied under "Service jobs", not listed as a blank report row.
    reports = EnvelopeSet([e for e in envelopes if "error" not in e.extra])
    sections = [
        _overview_section(envelopes),
        _sim_section(envelopes),
        _equivalence_section(envelopes),
        _dse_section(reports),
        _faults_section(reports),
        _cosim_section(reports),
        _service_section(envelopes),
        _bench_section(envelopes),
    ]
    body = "".join(section for section in sections if section)
    if len(envelopes) == 0:
        body += '<p class="muted">The journal is empty.</p>'
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body><h1>{_esc(title)}</h1>\n"
        f"{body}\n"
        f"<script>{_JS}</script></body></html>\n"
    )
