"""Job executors: turn a validated :class:`JobRequest` into an artifact.

One pure function per job kind, dispatched by :func:`execute`.  Every
executor returns a plain JSON-serialisable dict with no wall-clock, pid,
or host state in it, so an artifact computed by a service worker thread
is byte-identical to one computed by the corresponding direct CLI run —
the property the load benchmark verifies and the content-addressed store
depends on (same key ⇒ same bytes, whoever computed them).

Executors reuse the DSE layer rather than reimplementing it:
``simulate`` scores a single :class:`~repro.dse.space.DesignPoint`
through :class:`~repro.dse.evaluate.Evaluator` (compiled pipelines are
shared across jobs and worker threads by
:func:`repro.fleet.interned_pipeline`), and both
``simulate`` and ``dse`` read/write design-point evaluations through the
same :class:`~repro.service.store.ArtifactStore` the service persists
its artifacts in — one directory, one keying discipline, shared between
the service, the CLI sweeps, and any concurrent pool workers.
"""

from __future__ import annotations

from ..dse import (
    ConfigSpace,
    DesignPoint,
    Evaluator,
    GridStrategy,
    HillClimbStrategy,
    RandomStrategy,
)
from ..dse.cache import result_key
from ..dse.explore import Explorer
from ..fleet import interned_pipeline
from ..harness.runner import cgpa_area
from ..pipeline.spec import ReplicationPolicy
from .contracts import ContractError, JobRequest
from .store import ArtifactStore

# --------------------------------------------------------------------------
# Executors (one per kind)
# --------------------------------------------------------------------------


def _run_compile(request: JobRequest, store: ArtifactStore | None) -> dict:
    spec = request.spec()
    opts = request.options
    compiled = interned_pipeline(
        spec, ReplicationPolicy(opts["policy"]), opts["n_workers"],
        opts["fifo_depth"],
    )
    area = cgpa_area(compiled)
    return {
        "kind": "compile",
        "kernel": spec.name,
        "policy": opts["policy"],
        "n_workers": opts["n_workers"],
        "fifo_depth": opts["fifo_depth"],
        "signature": compiled.signature,
        "full_signature": compiled.full_signature,
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
    point = DesignPoint(
        policy=opts["policy"],
        n_workers=opts["n_workers"],
        fifo_depth=opts["fifo_depth"],
        private_caches=opts["private_caches"],
        cache_lines=opts["cache_lines"],
        cache_ports=opts["cache_ports"],
    )
    eval_key = result_key(spec, point, opts["max_cycles"], opts["engine"])
    stored = store.get(eval_key) if store is not None else None
    if stored is not None:
        result = stored
    else:
        evaluator = Evaluator(
            spec, max_cycles=opts["max_cycles"], engine=opts["engine"]
        )
        result = evaluator.evaluate(point).to_dict()
        if store is not None:
            store.put(eval_key, result)
    return {
        "kind": "simulate",
        "kernel": spec.name,
        "engine": opts["engine"],
        "max_cycles": opts["max_cycles"],
        "eval_key": eval_key,
        **result,
    }


def _run_dse(request: JobRequest, store: ArtifactStore | None) -> dict:
    spec = request.spec()
    opts = request.options
    space = ConfigSpace(
        policies=opts["policies"],
        n_workers=opts["n_workers"],
        fifo_depths=opts["fifo_depths"],
        private_caches=opts["private_caches"],
        cache_lines=opts["cache_lines"],
        cache_ports=opts["cache_ports"],
    )
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
    explorer = Explorer(
        spec,
        space,
        cache=store,
        processes=1,  # concurrency comes from the service worker pool
        max_cycles=opts["max_cycles"],
        engine=opts["engine"],
    )
    sweep = explorer.run(strategy)
    return {"kind": "dse", **sweep.to_json_dict()}


def _run_faults(request: JobRequest, store: ArtifactStore | None) -> dict:
    from ..faults.sweep import resilience_sweep

    spec = request.spec()
    opts = request.options
    report = resilience_sweep(
        spec,
        n_plans=opts["plans"],
        seed=opts["seed"],
        engine=opts["engine"],
        n_workers=opts["n_workers"],
        fifo_depth=opts["fifo_depth"],
        max_cycles=opts["max_cycles"],
    )
    return {"kind": "faults", **report.to_dict()}


def _run_rtl(request: JobRequest, store: ArtifactStore | None) -> dict:
    from ..vsim.cosim import run_rtl_cosim

    spec = request.spec()
    opts = request.options
    report = run_rtl_cosim(
        spec,
        policy=opts["policy"],
        n_workers=opts["n_workers"],
        fifo_depth=opts["fifo_depth"],
        setup_args=opts["setup_args"],
        max_cycles=opts["max_cycles"],
    )
    return {"kind": "rtl", **report.to_dict()}


_EXECUTORS = {
    "compile": _run_compile,
    "simulate": _run_simulate,
    "dse": _run_dse,
    "faults": _run_faults,
    "rtl": _run_rtl,
}


def execute(request: JobRequest, store: ArtifactStore | None = None) -> dict:
    """Run one job to completion and return its artifact dict.

    ``store``, when given, is consulted and populated for *inner*
    results (design-point evaluations shared between simulate and dse
    jobs); the caller persists the returned artifact under
    ``request.key`` itself.  Deterministic: no timestamps, pids, or
    ordering artifacts — equal requests produce equal bytes.
    """
    runner = _EXECUTORS.get(request.kind)
    if runner is None:
        raise ContractError(f"unknown job kind {request.kind!r}")
    return runner(request, store)


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
