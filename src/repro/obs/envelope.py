"""The versioned run envelope: one typed wide-event record per run.

A :class:`RunEnvelope` is the canonical machine-readable outcome of one
run of *any* subsystem — a simulation, a compile, a DSE point or sweep,
a fault sweep, an RTL co-simulation, or a benchmark — whether the
harness CLI or the service ran it.  The typed
fields carry everything cross-subsystem queries need (kind, kernel,
engine, config hash, cycles, stall breakdown, cost-model outputs,
verdicts); the subsystem's full report dict rides along as ``payload`` so
no information the per-subsystem shapes carry is lost, and ``extra`` is a
free-form annex for emitter-specific context.

Serialisation contract:

* :meth:`RunEnvelope.to_dict` emits every typed field with
  deterministically ordered mappings; ``from_dict(to_dict(e))`` rebuilds
  an equal envelope and ``to_dict(from_dict(d))`` returns ``d``
  bit-exactly for any dict this schema version wrote.
* :meth:`RunEnvelope.from_dict` tolerates *unknown keys* (dropped, like
  :meth:`repro.dse.evaluate.EvalResult.from_dict`) so records written by
  a same-major, later reader still load; but a record declaring a
  **newer schema version** fails with a typed, actionable
  :class:`EnvelopeError` — silently misreading a future schema is worse
  than refusing it.

The config hash reuses the service content-key discipline
(:attr:`repro.service.contracts.JobRequest.key` /
:func:`repro.service.store.content_key`): everything that determines the
run participates, so two envelopes with equal ``config_hash`` describe
re-runs of the same work and are directly comparable.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

from ..errors import CgpaError

#: Current envelope schema version.  Bump on any change to the typed
#: field set or field semantics; readers refuse records from the future.
SCHEMA_VERSION = 1

#: Valid ``RunEnvelope.kind`` values, in documentation order.
ENVELOPE_KINDS = (
    "sim",          # one accelerator simulation (harness run / trace)
    "dse-eval",     # one design-point evaluation
    "dse-sweep",    # one full design-space sweep
    "faults",       # one resilience sweep
    "cosim",        # one RTL co-simulation
    "compile",      # one compile job (partition signature + area)
    "service-job",  # read-only: the by-reference job record in older journals
    "bench",        # one benchmark figure
    "fleet",        # one supervision event (crash/retry/timeout/respawn/resume)
)

#: Fixed UTC timestamp format (lexicographic order == chronological).
_TS_FORMAT = "%Y-%m-%dT%H:%M:%S.%fZ"


class EnvelopeError(CgpaError):
    """A record that cannot be read as a :class:`RunEnvelope`.

    Raised with an actionable message: what was wrong, and (for version
    mismatches) what the reader supports versus what the record claims.
    """


def utc_timestamp() -> str:
    """Now, in the fixed envelope timestamp format."""
    return datetime.now(timezone.utc).strftime(_TS_FORMAT)


def new_run_id(kind: str) -> str:
    """A unique run id; the kind prefix keeps journals human-greppable."""
    return f"{kind}-{uuid.uuid4().hex[:12]}"


def _sorted_mapping(mapping: dict) -> dict:
    """Key-sorted shallow copy (one level of nesting sorted too)."""
    out = {}
    for key in sorted(mapping):
        value = mapping[key]
        out[key] = (
            {k: value[k] for k in sorted(value)}
            if isinstance(value, dict) else value
        )
    return out


@dataclass
class RunEnvelope:
    """One wide-event record: the outcome of one run, any subsystem.

    Optional typed fields are ``None`` (or empty) when the producing
    subsystem has no such quantity — a ``compile`` job has no
    ``cycles``; a benchmark has no ``config_hash`` per design point.
    """

    kind: str
    run_id: str = ""
    timestamp: str = ""
    schema_version: int = SCHEMA_VERSION
    #: Kernel name, when the run targets a single kernel.
    kernel: str | None = None
    #: Simulator engine (event / lockstep / specialized), when meaningful.
    engine: str | None = None
    #: Content hash of everything determining the run (JobRequest.key
    #: discipline); equal hashes ⇒ re-runs of identical work.
    config_hash: str | None = None
    #: Run status / verdict summary: "ok", "deadlock", "failed", ...
    status: str | None = None
    #: Simulated cycle count (total, or the headline figure).
    cycles: int | None = None
    #: Aggregate stall cycles by telemetry category (summed over workers).
    stall_cycles: dict[str, int] = field(default_factory=dict)
    #: Cost-model outputs, when the run scored a design.
    total_aluts: int | None = None
    energy_uj: float | None = None
    power_mw: float | None = None
    cost_model_version: int | None = None
    #: Subsystem verdict counters (faults: diagnosed/detected counts;
    #: cosim: rounds/instances ok; dse: status counts).
    verdicts: dict = field(default_factory=dict)
    #: The subsystem's full report dict (the job artifact, where the run
    #: has one) — enough to regenerate its text report byte-exactly.
    payload: dict = field(default_factory=dict)
    #: Free-form emitter annex (CLI flags, hostnames, notes).
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.run_id:
            self.run_id = new_run_id(self.kind)
        if not self.timestamp:
            self.timestamp = utc_timestamp()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`EnvelopeError` unless this envelope is schema-valid."""
        if not isinstance(self.schema_version, int) or isinstance(
            self.schema_version, bool
        ):
            raise EnvelopeError(
                f"envelope schema_version must be an int, "
                f"got {self.schema_version!r}"
            )
        if self.schema_version > SCHEMA_VERSION:
            raise EnvelopeError(
                f"envelope {self.run_id or '<unidentified>'} was written by "
                f"schema v{self.schema_version}; this reader supports up to "
                f"v{SCHEMA_VERSION} — upgrade repro (or regenerate the "
                f"journal with this version) before querying it"
            )
        if self.kind not in ENVELOPE_KINDS:
            raise EnvelopeError(
                f"envelope {self.run_id or '<unidentified>'}: unknown kind "
                f"{self.kind!r}; expected one of {list(ENVELOPE_KINDS)}"
            )
        for name in ("run_id", "timestamp"):
            if not isinstance(getattr(self, name), str) or not getattr(self, name):
                raise EnvelopeError(
                    f"envelope field {name!r} must be a non-empty string, "
                    f"got {getattr(self, name)!r}"
                )
        for name in ("kernel", "engine", "config_hash", "status"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise EnvelopeError(
                    f"envelope {self.run_id}: field {name!r} must be a "
                    f"string or null, got {value!r}"
                )
        if self.cycles is not None and (
            not isinstance(self.cycles, int) or isinstance(self.cycles, bool)
        ):
            raise EnvelopeError(
                f"envelope {self.run_id}: cycles must be an int or null, "
                f"got {self.cycles!r}"
            )
        for name in ("stall_cycles", "verdicts", "payload", "extra"):
            if not isinstance(getattr(self, name), dict):
                raise EnvelopeError(
                    f"envelope {self.run_id}: field {name!r} must be a "
                    f"mapping, got {type(getattr(self, name)).__name__}"
                )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Strict canonical dict form (deterministic mapping order)."""
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "kind": self.kind,
            "kernel": self.kernel,
            "engine": self.engine,
            "config_hash": self.config_hash,
            "status": self.status,
            "cycles": self.cycles,
            "stall_cycles": {
                k: self.stall_cycles[k] for k in sorted(self.stall_cycles)
            },
            "total_aluts": self.total_aluts,
            "energy_uj": self.energy_uj,
            "power_mw": self.power_mw,
            "cost_model_version": self.cost_model_version,
            "verdicts": _sorted_mapping(self.verdicts),
            "payload": self.payload,
            "extra": _sorted_mapping(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunEnvelope":
        """Parse and validate one envelope dict.

        Unknown keys are dropped (forward compatibility within the
        schema version); a missing or *newer* ``schema_version`` raises
        a typed :class:`EnvelopeError`.
        """
        if not isinstance(data, dict):
            raise EnvelopeError(
                f"envelope record must be a JSON object, "
                f"got {type(data).__name__}"
            )
        version = data.get("schema_version")
        if version is None:
            raise EnvelopeError(
                "record has no schema_version field; not a run envelope "
                "(bare report dicts must be wrapped by their subsystem's "
                "emitter in repro.obs.emit)"
            )
        known = {f.name for f in fields(cls)}
        kept = {k: v for k, v in data.items() if k in known}
        if "kind" not in kept:
            raise EnvelopeError("envelope record has no kind field")
        try:
            envelope = cls(**kept)
        except TypeError as exc:
            raise EnvelopeError(f"malformed envelope record: {exc}")
        envelope.validate()
        return envelope

    # -- convenience -------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when the run finished without a failure verdict."""
        return self.status in (None, "ok", "done")

    def age_key(self) -> tuple[str, str]:
        """Sort key: (timestamp, run_id) — chronological, stable."""
        return (self.timestamp, self.run_id)

    def identity(self) -> tuple:
        """What this envelope is a run *of* (for cross-journal matching)."""
        return (self.kind, self.kernel, self.engine, self.config_hash)
