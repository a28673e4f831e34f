"""``python -m repro.harness obs`` — query, diff and render the journal."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ...obs.dashboard import render_dashboard
from ...obs.envelope import ENVELOPE_KINDS
from ...obs.query import (
    GROUP_KEYS,
    METRICS,
    diff_envelope_sets,
    load_envelopes,
    render_legacy_report,
)


def obs_main(argv: list[str]) -> int:
    """``python -m repro.harness obs`` — query the run-record spine."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness obs",
        description="Query, diff and render the run envelopes every "
        "subcommand journals into its artifact store "
        "(<store>/envelopes.jsonl).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser(
        "query", help="load, validate, filter and aggregate envelopes",
        description="Load a journal, validate every record, and print "
        "matching envelopes (or aggregates, legacy reports, or raw JSON).",
    )
    query.add_argument(
        "journal", type=pathlib.Path, nargs="?",
        default=pathlib.Path(".cgpa-store"),
        help="envelopes.jsonl, a store root containing one, or a "
        "directory of envelope JSON files (default: ./.cgpa-store)",
    )
    query.add_argument("--kind", choices=ENVELOPE_KINDS, default=None,
                       help="keep only this run kind")
    query.add_argument("--kernel", default=None,
                       help="keep only this kernel")
    query.add_argument("--engine", default=None,
                       help="keep only this simulator engine")
    query.add_argument("--config-hash", default=None, metavar="PREFIX",
                       help="keep only runs whose config hash starts with "
                       "PREFIX")
    query.add_argument("--status", default=None,
                       help="keep only this run status")
    query.add_argument("--since", default=None, metavar="TS",
                       help="keep runs at/after this UTC timestamp (prefix "
                       "allowed, e.g. 2026-08-07)")
    query.add_argument("--until", default=None, metavar="TS",
                       help="keep runs at/before this UTC timestamp (prefix "
                       "allowed)")
    query.add_argument("--group-by", default=None, metavar="KEY[,KEY]",
                       help=f"aggregate per group; keys: {', '.join(GROUP_KEYS)}")
    query.add_argument("--metric", default="cycles", choices=METRICS,
                       help="metric to aggregate (default: cycles)")
    query.add_argument("--strict", action="store_true",
                       help="fail (exit 1) on any invalid record instead of "
                       "skipping it")
    query.add_argument("--report", action="store_true",
                       help="regenerate the legacy text report "
                       "(Pareto table / faults verdicts / stall breakdown) "
                       "from each matching envelope, byte-identical to the "
                       "original CLI output")
    query.add_argument("--json", action="store_true",
                       help="print matching envelopes as a JSON array")
    query.set_defaults(func=_obs_query)

    diff = sub.add_parser(
        "diff", help="regression diff between two journals",
        description="Compare the latest run per (kind, kernel, engine, "
        "config hash) between two journals and flag metric regressions.",
    )
    diff.add_argument("base", type=pathlib.Path,
                      help="baseline journal or store root")
    diff.add_argument("new", type=pathlib.Path,
                      help="candidate journal or store root")
    diff.add_argument("--metric", default="cycles", choices=METRICS,
                      help="metric to compare (default: cycles)")
    diff.add_argument("--threshold", type=float, default=0.0,
                      metavar="FRACTION",
                      help="relative slack before a higher value counts as "
                      "a regression (default: 0.0; 0.02 tolerates 2%%)")
    diff.add_argument("--fail-on-regression", action="store_true",
                      help="exit 1 when any identity regressed")
    diff.set_defaults(func=_obs_diff)

    report = sub.add_parser(
        "report", help="render the static HTML dashboard",
        description="Render the journal as one dependency-free HTML page "
        "(inline CSS/JS/SVG; renders from file:// and CI artifact "
        "viewers).",
    )
    report.add_argument(
        "journal", type=pathlib.Path, nargs="?",
        default=pathlib.Path(".cgpa-store"),
        help="envelopes.jsonl or a store root (default: ./.cgpa-store)",
    )
    report.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("obs-dashboard.html"),
        help="output HTML path (default: ./obs-dashboard.html)",
    )
    report.add_argument("--title", default="CGPA run dashboard",
                        help="page title")
    report.add_argument("--strict", action="store_true",
                        help="fail (exit 1) on any invalid record")
    report.set_defaults(func=_obs_report)

    args = parser.parse_args(argv)
    return args.func(args)


def _obs_query(args) -> int:
    envelopes = load_envelopes(args.journal, strict=args.strict)
    for error in envelopes.errors:
        print(f"warning: skipped invalid record: {error}", file=sys.stderr)
    subset = envelopes.filter(
        kind=args.kind, kernel=args.kernel, engine=args.engine,
        config_hash=args.config_hash, status=args.status,
        since=args.since, until=args.until,
    )
    if args.report:
        texts = [render_legacy_report(env) for env in subset]
        texts = [text for text in texts if text is not None]
        if not texts:
            print("error: no matching envelope has a legacy text report "
                  "(kinds: dse-sweep, faults, sim)", file=sys.stderr)
            return 1
        print("\n\n".join(texts))
        return 0
    if args.json:
        print(json.dumps([env.to_dict() for env in subset],
                         indent=2, sort_keys=True))
        return 0
    print(f"{len(subset)}/{len(envelopes)} envelopes from {envelopes.source}")
    if args.group_by:
        keys = [key for key in args.group_by.split(",") if key]
        for group, members in subset.group_by(*keys).items():
            stats = members.aggregate(args.metric)
            label = " ".join("-" if v is None else str(v) for v in group)
            described = (
                f"{args.metric} min={stats['min']} max={stats['max']} "
                f"latest={stats['latest']}"
                if stats["measured"] else f"no {args.metric} measured"
            )
            print(f"  {label}: {stats['runs']} run(s), {described}")
        return 0
    for env in subset:
        cycles = "-" if env.cycles is None else str(env.cycles)
        print(f"  {env.timestamp}  {env.kind:<11} "
              f"{env.kernel or '-':<14} {env.engine or '-':<11} "
              f"{env.status or '-':<9} {cycles:>9}  {env.run_id}")
    return 0


def _obs_diff(args) -> int:
    base = load_envelopes(args.base)
    new = load_envelopes(args.new)
    diffs = diff_envelope_sets(
        base, new, metric=args.metric, threshold=args.threshold
    )
    for entry in diffs:
        print(entry.format())
    regressed = sum(1 for entry in diffs if entry.regressed)
    improved = sum(1 for entry in diffs if not entry.regressed and entry.delta < 0)
    print(f"{len(diffs)} identities compared: {regressed} regressed, "
          f"{improved} improved, {len(diffs) - regressed - improved} unchanged")
    if args.fail_on_regression and regressed:
        return 1
    return 0


def _obs_report(args) -> int:
    envelopes = load_envelopes(args.journal, strict=args.strict)
    page = render_dashboard(envelopes, title=args.title)
    if args.out.parent != pathlib.Path(""):
        args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(page)
    print(f"dashboard: {args.out} ({len(envelopes)} runs, "
          f"{len(envelopes.errors)} invalid)")
    return 0
