"""repro.obs — the structured run-record spine.

Every subsystem that *runs* something (simulation, DSE, fault sweeps,
RTL co-simulation, service jobs, benchmarks) historically invented its
own report shape.  This package unifies them behind one versioned,
typed **run envelope** (wide-event style): a single JSON record per run
carrying the config hash, engine, cycle count, stall breakdown,
cost-model outputs and the subsystem's verdict payload, persisted once,
as one line of the append-only ``envelopes.jsonl`` journal of a store
root — the same record whether the harness CLI or the service ran it.

Layers:

* :mod:`repro.obs.envelope` — the :class:`RunEnvelope` schema and its
  strict, forward-compatible serialisation;
* :mod:`repro.obs.emit` — the :class:`EnvelopeWriter` plus one builder
  per report shape (:func:`job_envelope` for every job kind);
* :mod:`repro.obs.query` — ingestion (journal / store / directory),
  validation, filter / group-by / aggregate, and regression diffs;
* :mod:`repro.obs.dashboard` — a dependency-free static HTML report.

CLI: ``python -m repro.harness obs query|diff|report``.
"""

from .envelope import (
    ENVELOPE_KINDS,
    SCHEMA_VERSION,
    EnvelopeError,
    RunEnvelope,
)
from .emit import (
    EnvelopeWriter,
    bench_envelope,
    eval_envelope,
    fleet_envelope,
    job_envelope,
    sim_envelope,
)
from .query import (
    EnvelopeSet,
    MetricDiff,
    diff_envelope_sets,
    load_envelopes,
)
from .dashboard import render_dashboard

__all__ = [
    "ENVELOPE_KINDS",
    "SCHEMA_VERSION",
    "EnvelopeError",
    "RunEnvelope",
    "EnvelopeWriter",
    "bench_envelope",
    "eval_envelope",
    "fleet_envelope",
    "job_envelope",
    "sim_envelope",
    "EnvelopeSet",
    "MetricDiff",
    "diff_envelope_sets",
    "load_envelopes",
    "render_dashboard",
]
