"""Job executors: turn a validated :class:`JobRequest` into an artifact.

One function per job kind, dispatched by :func:`run_job`; :func:`execute`
is ``run_job`` + :func:`artifact_of`.  This is the only place a request
becomes work: the service queue calls :func:`execute`, and the harness
CLI (``python -m repro.harness dse|faults|rtl``) calls :func:`run_job`
with the same request plus its how-to-run keywords.  Every artifact is a
plain JSON-serialisable dict with no wall-clock, pid, or host state in
it, so the one computed by a service worker is byte-identical to the one
a CLI run stores — the property the content-addressed store depends on
(same key ⇒ same bytes, whoever computed them).

Executors reuse the DSE layer rather than reimplementing it:
``simulate`` scores a single :class:`~repro.dse.space.DesignPoint`
through :class:`~repro.dse.evaluate.Evaluator` (compiled pipelines are
shared across jobs and worker threads by
:func:`repro.harness.build.interned_pipeline`), and both
``simulate`` and ``dse`` read/write design-point evaluations through the
same :class:`~repro.service.store.ArtifactStore` the artifacts land in —
one directory, one keying discipline, shared between the service and
the CLI sweeps.
"""

from __future__ import annotations

from dataclasses import fields

from ..dse import (
    ConfigSpace,
    DesignPoint,
    Evaluator,
    GridStrategy,
    HillClimbStrategy,
    RandomStrategy,
    result_key,
)
from ..dse.explore import Explorer, SweepResult
from ..faults.sweep import ResilienceReport, resilience_sweep
from ..harness.build import interned_pipeline
from ..harness.runner import cgpa_area
from ..hw import DEFAULT_ENGINE
from ..pipeline.spec import ReplicationPolicy
from ..vsim.cosim import CosimReport, run_rtl_cosim
from .contracts import ContractError, JobRequest
from .store import ArtifactStore

# --------------------------------------------------------------------------
# Executors (one per kind)
# --------------------------------------------------------------------------


def _run_compile(request: JobRequest, store: ArtifactStore | None) -> dict:
    spec = request.spec()
    opts = request.options
    compiled = interned_pipeline(
        spec, ReplicationPolicy(opts["policy"]), opts["n_workers"]
    )
    area = cgpa_area(compiled, opts["fifo_depth"])
    return {
        "kind": "compile",
        "kernel": spec.name,
        "policy": opts["policy"],
        "n_workers": opts["n_workers"],
        "fifo_depth": opts["fifo_depth"],
        "signature": compiled.signature,
        "full_signature": compiled.full_signature(opts["fifo_depth"]),
        "n_channels": len(compiled.result.channels),
        "total_aluts": area.total_aluts,
        "worker_aluts": dict(sorted(area.worker_aluts.items())),
        "fifo_aluts": area.fifo_aluts,
        "arbiter_aluts": area.arbiter_aluts,
        "bram_bits": area.bram_bits,
    }


def _run_simulate(request: JobRequest, store: ArtifactStore | None) -> dict:
    spec = request.spec()
    opts = request.options
    # Every knob of a DesignPoint is the simulate option of the same name.
    point = DesignPoint(**{knob.name: opts[knob.name] for knob in fields(DesignPoint)})
    eval_key = result_key(spec, point, opts["max_cycles"], DEFAULT_ENGINE)
    stored = store.get(eval_key) if store is not None else None
    if stored is not None:
        result = stored
    else:
        evaluator = Evaluator(spec, max_cycles=opts["max_cycles"])
        result = evaluator.evaluate(point).to_dict()
        if store is not None:
            store.put(eval_key, result)
    return {
        "kind": "simulate",
        "kernel": spec.name,
        "engine": DEFAULT_ENGINE,
        "max_cycles": opts["max_cycles"],
        "eval_key": eval_key,
        **result,
    }


def dse_space(request: JobRequest) -> ConfigSpace:
    """The knob space a ``dse`` request sweeps (each axis of a
    :class:`ConfigSpace` is the option of the same name)."""
    return ConfigSpace(
        **{axis.name: request.options[axis.name] for axis in fields(ConfigSpace)}
    )


def _run_dse(
    request: JobRequest,
    store: ArtifactStore | None,
    processes: int = 1,  # the service's concurrency is its worker pool
    envelopes=None,
) -> SweepResult:
    opts = request.options
    strategy = {
        "grid": lambda: GridStrategy(),
        "random": lambda: RandomStrategy(opts["samples"], seed=opts["seed"]),
        "hillclimb": lambda: HillClimbStrategy(
            objective=opts["objective"], max_evals=opts["max_evals"]
        ),
    }[opts["strategy"]]()
    # The store doubles as the design-point result cache, so sweeps
    # submitted by many clients — and single-point simulate jobs — share
    # evaluations.
    with Explorer(
        request.spec(),
        dse_space(request),
        cache=store,
        processes=processes,
        max_cycles=opts["max_cycles"],
        envelopes=envelopes,
    ) as explorer:
        return explorer.run(strategy)


def _run_faults(
    request: JobRequest,
    store: ArtifactStore | None,
    processes: int = 1,
    envelopes=None,
) -> ResilienceReport:
    opts = request.options
    return resilience_sweep(
        request.spec(),
        n_plans=opts["plans"],
        seed=opts["seed"],
        n_workers=opts["n_workers"],
        fifo_depth=opts["fifo_depth"],
        max_cycles=opts["max_cycles"],
        processes=processes,
        # Plan checkpoints ride with the run-record writer: a run that
        # journals nothing (every service job) checkpoints nothing.
        store=envelopes.store if envelopes is not None else None,
        envelopes=envelopes,
    )


def _run_rtl(
    request: JobRequest, store: ArtifactStore | None, emit_dir=None
) -> CosimReport:
    opts = request.options
    return run_rtl_cosim(
        request.spec(),
        policy=opts["policy"],
        n_workers=opts["n_workers"],
        fifo_depth=opts["fifo_depth"],
        setup_args=opts["setup_args"],
        max_cycles=opts["max_cycles"],
        emit_dir=emit_dir,
    )


_EXECUTORS = {
    "compile": _run_compile,
    "simulate": _run_simulate,
    "dse": _run_dse,
    "faults": _run_faults,
    "rtl": _run_rtl,
}


def run_job(request: JobRequest, store: ArtifactStore | None = None, **how):
    """Run one job to completion and return what its executor yields.

    ``compile``/``simulate`` yield the artifact dict itself; ``dse``,
    ``faults`` and ``rtl`` yield their typed report (:class:`SweepResult`,
    :class:`ResilienceReport`, :class:`CosimReport`), which
    :func:`artifact_of` turns into the artifact.  ``how`` is *how* to run,
    never *what*: ``processes``/``envelopes`` (dse, faults)
    and ``emit_dir`` (rtl) stay out of ``request.key`` exactly as
    ``deadline_s`` does.  The service passes none; the harness CLI does.
    """
    runner = _EXECUTORS.get(request.kind)
    if runner is None:
        raise ContractError(f"unknown job kind {request.kind!r}")
    return runner(request, store, **how)


def artifact_of(kind: str, result) -> dict:
    """The JSON artifact stored under ``request.key`` for ``result``."""
    if isinstance(result, dict):
        return result
    body = result.to_json_dict() if kind == "dse" else result.to_dict()
    return {"kind": kind, **body}


def execute(request: JobRequest, store: ArtifactStore | None = None) -> dict:
    """Run one job to completion and return its artifact dict.

    ``store``, when given, is consulted and populated for *inner*
    results (design-point evaluations shared between simulate and dse
    jobs); the caller persists the returned artifact under
    ``request.key`` itself.  Deterministic: no timestamps, pids, or
    ordering artifacts — equal requests produce equal bytes.
    """
    return artifact_of(request.kind, run_job(request, store))


#: Per-process artifact stores for fleet-pool execution, keyed by root.
#: Store instances hold only an LRU and counters; the disk layout and
#: its atomic-write discipline are shared with every other process.
_PROCESS_STORES: dict = {}


def execute_in_process(store_root: str, request: JobRequest) -> dict:
    """Fleet-pool entry point: :func:`execute` against a per-process store.

    Module-level and picklable (bind ``store_root`` with
    ``functools.partial``), so the service job queue can dispatch jobs to
    :class:`~repro.fleet.FleetExecutor` pool processes.  Each process
    rebuilds one :class:`ArtifactStore` per root and keeps it — its warm
    LRU, the interned pipelines and the interned workload images all
    amortize across the jobs that land on it.
    """
    store = _PROCESS_STORES.get(store_root)
    if store is None:
        store = _PROCESS_STORES[store_root] = ArtifactStore(store_root)
    return execute(request, store=store)
