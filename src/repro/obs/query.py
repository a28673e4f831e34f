"""Ingestion and queries over run-envelope journals.

:func:`load_envelopes` ingests a journal (``envelopes.jsonl``), a store
root containing one, or a directory of envelope JSON files, validating
every record against the schema version.  The result is an
:class:`EnvelopeSet` — an immutable, chronologically sorted collection
with ``filter`` / ``group_by`` / ``aggregate`` combinators, plus
:func:`diff_envelope_sets` for regression diffs between two journals
(the ``harness obs diff`` backend).

:func:`render_legacy_report` regenerates the per-subsystem text
reports (DSE Pareto table, faults verdict report, stall breakdown)
byte-identically from an envelope's ``payload`` — how a run's text comes
back out of the journal (``harness obs query --report``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from .envelope import EnvelopeError, RunEnvelope

#: Typed metrics a query can aggregate or diff on.
METRICS = ("cycles", "total_aluts", "energy_uj", "power_mw")

#: Envelope fields usable as group-by keys.
GROUP_KEYS = ("kind", "kernel", "engine", "config_hash", "status")


def load_envelopes(
    source: str | pathlib.Path, strict: bool = False
) -> "EnvelopeSet":
    """Load every envelope under ``source``.

    ``source`` may be an ``envelopes.jsonl`` journal, a store root
    containing one, or a directory of per-run envelope JSON files.
    Records that fail validation are collected as errors (``strict=False``)
    or raised immediately as :class:`EnvelopeError` (``strict=True``).
    Non-envelope JSON files in a store (job artifacts, which carry no
    ``schema_version``) are skipped silently — the journal is the
    authoritative run log.
    """
    root = pathlib.Path(source)
    records: list[tuple[str, dict]] = []
    if root.is_file():
        records.extend(_read_journal(root))
    elif root.is_dir():
        journal = root / "envelopes.jsonl"
        if journal.is_file():
            records.extend(_read_journal(journal))
        else:
            for path in sorted(root.rglob("*.json")):
                try:
                    data = json.loads(path.read_text())
                except (OSError, ValueError):
                    continue
                if isinstance(data, dict) and "schema_version" in data:
                    records.append((str(path), data))
    else:
        raise EnvelopeError(
            f"no journal at {root}: expected an envelopes.jsonl file, a "
            f"store root containing one, or a directory of envelope JSON "
            f"files"
        )

    envelopes: list[RunEnvelope] = []
    errors: list[str] = []
    for origin, data in records:
        try:
            envelopes.append(RunEnvelope.from_dict(data))
        except EnvelopeError as exc:
            if strict:
                raise EnvelopeError(f"{origin}: {exc}")
            errors.append(f"{origin}: {exc}")
    envelopes.sort(key=RunEnvelope.age_key)
    return EnvelopeSet(envelopes, errors=errors, source=str(root))


def _read_journal(path: pathlib.Path) -> list[tuple[str, dict]]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            origin = f"{path}:{lineno}"
            try:
                records.append((origin, json.loads(line)))
            except ValueError as exc:
                records.append((origin, {"__parse_error__": str(exc)}))
    return records


class EnvelopeSet:
    """A chronologically sorted, immutable collection of envelopes."""

    def __init__(
        self,
        envelopes: list[RunEnvelope],
        errors: list[str] | None = None,
        source: str | None = None,
    ) -> None:
        self.envelopes = list(envelopes)
        self.errors = list(errors or [])
        self.source = source

    def __len__(self) -> int:
        return len(self.envelopes)

    def __iter__(self):
        return iter(self.envelopes)

    def __getitem__(self, index: int) -> RunEnvelope:
        return self.envelopes[index]

    # -- combinators -------------------------------------------------------

    def filter(
        self,
        kind: str | None = None,
        kernel: str | None = None,
        engine: str | None = None,
        config_hash: str | None = None,
        status: str | None = None,
        since: str | None = None,
        until: str | None = None,
    ) -> "EnvelopeSet":
        """Subset by typed fields and/or timestamp range.

        ``since``/``until`` are inclusive and compared in the envelope
        timestamp format; a prefix (e.g. ``2026-08-07``) matches the
        whole period it abbreviates.  A ``config_hash`` prefix matches
        too, mirroring how the store CLI accepts short keys.
        """
        kept = []
        for env in self.envelopes:
            if kind is not None and env.kind != kind:
                continue
            if kernel is not None and env.kernel != kernel:
                continue
            if engine is not None and env.engine != engine:
                continue
            if config_hash is not None and not (
                env.config_hash or ""
            ).startswith(config_hash):
                continue
            if status is not None and env.status != status:
                continue
            if since is not None and env.timestamp < since:
                continue
            if until is not None and env.timestamp[: len(until)] > until:
                continue
            kept.append(env)
        return EnvelopeSet(kept, errors=self.errors, source=self.source)

    def group_by(self, *keys: str) -> dict[tuple, "EnvelopeSet"]:
        """Partition into sub-sets keyed by the given envelope fields."""
        for key in keys:
            if key not in GROUP_KEYS:
                raise EnvelopeError(
                    f"unknown group-by key {key!r}; expected one of "
                    f"{list(GROUP_KEYS)}"
                )
        groups: dict[tuple, list[RunEnvelope]] = {}
        for env in self.envelopes:
            groups.setdefault(
                tuple(getattr(env, key) for key in keys), []
            ).append(env)
        return {
            group: EnvelopeSet(members, source=self.source)
            for group, members in sorted(
                groups.items(), key=lambda item: tuple(map(_none_low, item[0]))
            )
        }

    def aggregate(self, metric: str = "cycles") -> dict:
        """Count / min / max / mean / latest over one typed metric.

        Envelopes without the metric (``None``) are excluded from the
        statistics but still counted in ``runs``.
        """
        if metric not in METRICS:
            raise EnvelopeError(
                f"unknown metric {metric!r}; expected one of {list(METRICS)}"
            )
        values = [
            getattr(env, metric)
            for env in self.envelopes
            if getattr(env, metric) is not None
        ]
        return {
            "metric": metric,
            "runs": len(self.envelopes),
            "measured": len(values),
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            "mean": sum(values) / len(values) if values else None,
            "latest": values[-1] if values else None,
        }

    def latest_by_identity(self) -> dict[tuple, RunEnvelope]:
        """The newest envelope per (kind, kernel, engine, config_hash)."""
        latest: dict[tuple, RunEnvelope] = {}
        for env in self.envelopes:  # chronological: later wins
            latest[env.identity()] = env
        return latest

    # -- introspection -----------------------------------------------------

    def kinds(self) -> list[str]:
        return sorted({env.kind for env in self.envelopes})

    def kernels(self) -> list[str]:
        return sorted(
            {env.kernel for env in self.envelopes if env.kernel is not None}
        )

    def engines(self) -> list[str]:
        return sorted(
            {env.engine for env in self.envelopes if env.engine is not None}
        )


def _none_low(value):
    """Sort key treating None as lowest (mixed-None group keys)."""
    return (value is not None, value)


@dataclass
class MetricDiff:
    """One identity's metric movement between two journals."""

    kind: str
    kernel: str | None
    engine: str | None
    config_hash: str | None
    metric: str
    base: float | int
    new: float | int
    #: Relative change, ``(new - base) / base`` (0.0 when base == 0).
    ratio: float
    #: True when the metric got *worse* beyond the threshold (all typed
    #: metrics are costs: cycles, area, energy, power — higher is worse).
    regressed: bool

    @property
    def delta(self) -> float | int:
        return self.new - self.base

    def format(self) -> str:
        where = " ".join(
            str(part)
            for part in (
                self.kind,
                self.kernel,
                self.engine,
                (self.config_hash or "")[:12] or None,
            )
            if part is not None
        )
        marker = "REGRESSED" if self.regressed else (
            "improved" if self.delta < 0 else "unchanged"
        )
        return (
            f"{where}: {self.metric} {self.base} -> {self.new} "
            f"({self.ratio:+.1%}) {marker}"
        )


def diff_envelope_sets(
    base: EnvelopeSet,
    new: EnvelopeSet,
    metric: str = "cycles",
    threshold: float = 0.0,
) -> list[MetricDiff]:
    """Compare the latest run per identity between two envelope sets.

    Returns one :class:`MetricDiff` per identity present in *both* sets
    with a measured metric, sorted with regressions first (largest ratio
    first), then by identity.  ``threshold`` is the relative slack before
    a higher value counts as a regression (0.02 = 2% tolerated).
    """
    if metric not in METRICS:
        raise EnvelopeError(
            f"unknown metric {metric!r}; expected one of {list(METRICS)}"
        )
    base_latest = base.latest_by_identity()
    new_latest = new.latest_by_identity()
    diffs: list[MetricDiff] = []
    for identity in base_latest.keys() & new_latest.keys():
        old_value = getattr(base_latest[identity], metric)
        new_value = getattr(new_latest[identity], metric)
        if old_value is None or new_value is None:
            continue
        ratio = (new_value - old_value) / old_value if old_value else 0.0
        diffs.append(
            MetricDiff(
                kind=identity[0],
                kernel=identity[1],
                engine=identity[2],
                config_hash=identity[3],
                metric=metric,
                base=old_value,
                new=new_value,
                ratio=ratio,
                regressed=ratio > threshold,
            )
        )
    diffs.sort(
        key=lambda d: (
            not d.regressed,
            -d.ratio,
            d.kind,
            d.kernel or "",
            d.engine or "",
            d.config_hash or "",
        )
    )
    return diffs


def render_legacy_report(envelope: RunEnvelope) -> str | None:
    """Regenerate the subsystem's text report from an envelope.

    Byte-identical to what the CLI prints for the same run, whether the
    CLI or a service journalled it:

    * ``dse-sweep`` → :func:`repro.harness.report.format_pareto`
    * ``faults``    → :meth:`repro.faults.sweep.ResilienceReport.format`
    * ``sim``       → :func:`repro.harness.report.format_stall_breakdown`

    Returns ``None`` for kinds with no text-report equivalent and for an
    empty payload (a failed service job has no report).  Imports are
    local: the subsystems import :mod:`repro.obs`, not the reverse.
    """
    if not envelope.payload:
        return None
    if envelope.kind == "dse-sweep":
        from ..dse.explore import SweepResult
        from ..harness.report import format_pareto

        return format_pareto(SweepResult.from_json_dict(envelope.payload))
    if envelope.kind == "faults":
        from ..faults.sweep import ResilienceReport

        return ResilienceReport.from_dict(envelope.payload).format()
    if envelope.kind == "sim":
        from ..harness.report import format_stall_breakdown
        from ..hw.system import SimReport

        return format_stall_breakdown(
            SimReport.from_dict(envelope.payload), kernel=envelope.kernel
        )
    return None
