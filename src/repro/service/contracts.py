"""Typed request contracts for the CGPA service.

A :class:`JobRequest` is the wire form of one unit of toolchain work:
which *kind* of job (compile / simulate / dse / faults / rtl), which
kernel (optionally with the C source overridden, so clients can submit
modified programs), and a per-kind option mapping.  Construction
normalises the options against a declared schema — defaults filled,
types checked, unknown keys rejected — so every accepted request is
fully specified and two requests meaning the same work serialise to the
same canonical payload.

That canonical payload is the request's **content key**
(:attr:`JobRequest.key`): the sha256 of the kind, the kernel's resolved
source and entry-point contract, the normalised options, and the
cost-model + contract schema versions.  The key addresses the artifact
in :class:`~repro.service.store.ArtifactStore`, drives request
coalescing in the job queue, and makes "have we done this before?" a
single dictionary probe rather than a semantic question.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from ..cost import COST_MODEL_VERSION
from ..dse.space import DEFAULT_EVAL_MAX_CYCLES, ConfigSpace
from ..errors import CgpaError
from ..kernels import KERNELS_BY_NAME, KernelSpec
from ..vsim.cosim import DEFAULT_COSIM_MAX_CYCLES
from .store import content_key

#: Bump when the request schema or job semantics change: every key
#: changes, so stale artifacts are never addressed again.
CONTRACT_VERSION = 1

#: The job kinds the service executes, in documentation order.
JOB_KINDS = ("compile", "simulate", "dse", "faults", "rtl")

#: Replication policies accepted by compile-like options.
_POLICIES = ("p1", "p2", "none")


class ContractError(CgpaError):
    """A request that fails validation (maps to HTTP 400)."""


# --------------------------------------------------------------------------
# Option schemas
# --------------------------------------------------------------------------


def _is_pos_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_pos_int_list(v: Any) -> bool:
    return (
        isinstance(v, list) and bool(v) and all(_is_pos_int(i) for i in v)
    )


def _is_bool_list(v: Any) -> bool:
    return (
        isinstance(v, list) and bool(v)
        and all(isinstance(i, bool) for i in v)
    )


def _is_policy_list(v: Any) -> bool:
    return (
        isinstance(v, list) and bool(v) and all(p in _POLICIES for p in v)
    )


@dataclass(frozen=True)
class Option:
    """One schema slot: default value, validator, and a doc string."""

    default: Any
    check: Callable[[Any], bool]
    doc: str


def _choice(values: tuple) -> Callable[[Any], bool]:
    return lambda v: v in values


_COMPILE_OPTIONS = {
    "policy": Option("p1", _choice(_POLICIES), f"one of {_POLICIES}"),
    "n_workers": Option(4, _is_pos_int, "int >= 1"),
    "fifo_depth": Option(16, _is_pos_int, "int >= 1"),
}

_SIMULATE_OPTIONS = {
    **_COMPILE_OPTIONS,
    "private_caches": Option(
        False, lambda v: isinstance(v, bool), "bool"
    ),
    "cache_lines": Option(
        512,
        lambda v: _is_pos_int(v) and not (v & (v - 1)),
        "power-of-two int >= 1",
    ),
    "cache_ports": Option(8, _is_pos_int, "int >= 1"),
    "max_cycles": Option(DEFAULT_EVAL_MAX_CYCLES, _is_pos_int, "int >= 1"),
}

#: A dse job that names no axis sweeps the explorer's own default space.
_SPACE = ConfigSpace()

_DSE_OPTIONS = {
    "strategy": Option(
        "grid", _choice(("grid", "random", "hillclimb")),
        "one of ('grid', 'random', 'hillclimb')",
    ),
    "policies": Option(_SPACE.policies, _is_policy_list, f"list of {_POLICIES}"),
    "n_workers": Option(_SPACE.n_workers, _is_pos_int_list, "list of int >= 1"),
    "fifo_depths": Option(_SPACE.fifo_depths, _is_pos_int_list, "list of int >= 1"),
    "private_caches": Option(_SPACE.private_caches, _is_bool_list, "list of bool"),
    "cache_lines": Option(
        _SPACE.cache_lines,
        lambda v: _is_pos_int_list(v) and all(not (i & (i - 1)) for i in v),
        "list of power-of-two int >= 1",
    ),
    "cache_ports": Option(_SPACE.cache_ports, _is_pos_int_list, "list of int >= 1"),
    "samples": Option(8, _is_pos_int, "int >= 1"),
    "seed": Option(0, _is_int, "int"),
    "max_evals": Option(24, _is_pos_int, "int >= 1"),
    "objective": Option(
        "cycles", _choice(("cycles", "total_aluts", "energy_uj")),
        "one of ('cycles', 'total_aluts', 'energy_uj')",
    ),
    "max_cycles": Option(DEFAULT_EVAL_MAX_CYCLES, _is_pos_int, "int >= 1"),
}

_FAULTS_OPTIONS = {
    "plans": Option(8, _is_pos_int, "int >= 1"),
    "seed": Option(0, _is_int, "int"),
    "n_workers": Option(4, _is_pos_int, "int >= 1"),
    "fifo_depth": Option(16, _is_pos_int, "int >= 1"),
    "max_cycles": Option(
        None, lambda v: v is None or _is_pos_int(v),
        "int >= 1 or null (64x the fault-free baseline)",
    ),
}

_RTL_OPTIONS = {
    "policy": Option("p1", _choice(_POLICIES), f"one of {_POLICIES}"),
    "n_workers": Option(2, _is_pos_int, "int >= 1"),
    "fifo_depth": Option(16, _is_pos_int, "int >= 1"),
    "setup_args": Option(
        None, lambda v: v is None or _is_pos_int_list(v),
        "list of int >= 1 or null (smoke-scale workload)",
    ),
    "max_cycles": Option(DEFAULT_COSIM_MAX_CYCLES, _is_pos_int, "int >= 1"),
}

#: kind -> {option name -> Option}.
OPTION_SCHEMAS: dict[str, dict[str, Option]] = {
    "compile": _COMPILE_OPTIONS,
    "simulate": _SIMULATE_OPTIONS,
    "dse": _DSE_OPTIONS,
    "faults": _FAULTS_OPTIONS,
    "rtl": _RTL_OPTIONS,
}


def normalize_options(kind: str, options: dict | None) -> dict:
    """Fill defaults and validate ``options`` against ``kind``'s schema."""
    schema = OPTION_SCHEMAS[kind]
    options = dict(options or {})
    unknown = sorted(set(options) - set(schema))
    if unknown:
        raise ContractError(
            f"{kind} job: unknown option(s) {unknown}; "
            f"valid options: {sorted(schema)}"
        )
    normalized = {}
    for name, slot in schema.items():
        value = options.get(name, slot.default)
        if not slot.check(value):
            raise ContractError(
                f"{kind} job: option {name}={value!r} invalid "
                f"(expected {slot.doc})"
            )
        normalized[name] = value
    return normalized


# --------------------------------------------------------------------------
# The request
# --------------------------------------------------------------------------


@dataclass
class JobRequest:
    """One validated, fully-specified unit of toolchain work.

    Build with :meth:`from_dict` (the wire path, which validates) or
    :meth:`make` (the in-process path).  ``options`` is always complete:
    every schema slot is present with either the submitted or the
    default value, so the content key never depends on which defaults a
    client spelled out.
    """

    kind: str
    kernel: str
    options: dict = field(default_factory=dict)
    #: Optional replacement C source for the kernel (same entry-point
    #: contract as the named kernel's spec).
    source: str | None = None
    #: Optional wall-clock budget (seconds) for executing this job.
    #: Transport-level: it bounds *this submission's* patience, not the
    #: work's identity, so it is deliberately **excluded from the content
    #: key** — a deadline must never split the artifact address space or
    #: defeat coalescing.
    deadline_s: float | None = None

    @classmethod
    def make(
        cls,
        kind: str,
        kernel: str,
        options: dict | None = None,
        source: str | None = None,
        deadline_s: float | None = None,
    ) -> "JobRequest":
        if kind not in JOB_KINDS:
            raise ContractError(
                f"unknown job kind {kind!r}; valid kinds: {list(JOB_KINDS)}"
            )
        if kernel not in KERNELS_BY_NAME:
            raise ContractError(
                f"unknown kernel {kernel!r}; "
                f"valid kernels: {sorted(KERNELS_BY_NAME)}"
            )
        if source is not None and not isinstance(source, str):
            raise ContractError("source override must be a string")
        if deadline_s is not None:
            if (
                isinstance(deadline_s, bool)
                or not isinstance(deadline_s, (int, float))
                or deadline_s <= 0
            ):
                raise ContractError(
                    "deadline_s must be a positive number of seconds"
                )
            deadline_s = float(deadline_s)
        return cls(
            kind=kind,
            kernel=kernel,
            options=normalize_options(kind, options),
            source=source,
            deadline_s=deadline_s,
        )

    @classmethod
    def from_dict(cls, data: Any) -> "JobRequest":
        """Validate a wire-form dict (the POST /v1/jobs body)."""
        if not isinstance(data, dict):
            raise ContractError("request body must be a JSON object")
        unknown = sorted(
            set(data) - {"kind", "kernel", "options", "source", "deadline_s"}
        )
        if unknown:
            raise ContractError(f"unknown request field(s) {unknown}")
        for name in ("kind", "kernel"):
            if not isinstance(data.get(name), str):
                raise ContractError(f"request field {name!r} must be a string")
        options = data.get("options")
        if options is not None and not isinstance(options, dict):
            raise ContractError("request field 'options' must be an object")
        return cls.make(
            data["kind"], data["kernel"],
            options=options, source=data.get("source"),
            deadline_s=data.get("deadline_s"),
        )

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "kernel": self.kernel,
            "options": dict(self.options),
        }
        if self.source is not None:
            out["source"] = self.source
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        return out

    # -- resolution --------------------------------------------------------

    def spec(self) -> KernelSpec:
        """The kernel spec this request targets (source override applied)."""
        spec = KERNELS_BY_NAME[self.kernel]
        if self.source is not None:
            spec = dataclasses.replace(spec, source=self.source)
        return spec

    @property
    def key(self) -> str:
        """Content address of this request's artifact.

        Hashes the same inputs as the DSE result cache — resolved C
        source, the kernel's entry-point contract, the full normalised
        option set — plus the job kind and the contract + cost-model
        versions, so any semantic change re-keys the world.
        """
        return content_key({
            "contract": CONTRACT_VERSION,
            "cost_model": COST_MODEL_VERSION,
            "kind": self.kind,
            **self.spec().key_fields(),
            "options": self.options,
        })
