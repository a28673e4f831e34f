"""dse-sweep — the sweep user's path.

``Explorer(processes=1, engine="specialized", cache=ArtifactStore(tmp))``
over policies [p1, none] x n_workers [2, 4] x fifo_depths [4, 16] x
cache_lines [128, 512] — 16 points on 8 compile keys — for ks, bfs and
hash-join.  *Cold*: a fresh store and explorer on source text the process
has not seen, so ``fleet.interned_workload`` + ``Memory.clone``, the
compile memo, the checksum interpretation (hash-join's check costs 3x its
simulate) and the store writes do the work.  *Warm*: re-sweeps of the
populated store, alternating ``drop_memory()`` disk reads with LRU reads,
so store reads do all of it and a write-side gain that costs reads shows.

Every point's checksum is compared with the interpreter oracle.
"""

from __future__ import annotations

import shutil

import core

#: Seconds one round (three cold sweeps and their warm batches) costs on the reference
#: box; frozen, it plans how many rounds ``--seconds`` buys.
ROUND_NOMINAL_S = 10.0

KERNELS = ("ks", "bfs", "hash-join")
SPACE = dict(
    policies=["p1", "none"], n_workers=[2, 4],
    fifo_depths=[4, 16], cache_lines=[128, 512],
)
ENGINE = "specialized"

#: Warm re-sweeps per timed batch (one batch must outlast the ~30 ms
#: calibration loop beside it) and batches per kernel and round.
WARM_BATCH = 40
WARM_BATCHES = 3
#: Memo hits and clones timed per kernel in the traced replay (one 16 MiB
#: copy is a few ms and now and then pays for a collection).
IMAGE_REPEATS = 4


def setup(ctx) -> dict:
    specs = core.select_kernels(ctx.seed, ctx.quick, names=KERNELS)
    return {
        "specs": specs,
        "refs": {s.name: core.oracle_reference(s) for s in specs},
    }


def _verify(ctx, state, base, phase, sweep, expect_hits: bool) -> None:
    problems = core.problems_of(sweep)
    if not problems:
        ref = state["refs"][base.name]
        if len(sweep.results) != 16:
            problems.append(f"{len(sweep.results)} points, expected 16")
        for result in sweep.results:
            if not result.ok:
                problems.append(f"{result.point.label}: {result.status}")
            elif not core.close(result.checksum, ref.checksum):
                problems.append(
                    f"{result.point.label}: checksum {result.checksum!r} "
                    f"!= oracle {ref.checksum!r}"
                )
        if expect_hits and sweep.cache_misses:
            problems.append(f"warm sweep missed {sweep.cache_misses} points")
        problems += ctx.check.pinned(
            f"{base.name}.points",
            [(r.cycles, r.total_aluts, r.energy_uj) for r in sweep.results],
        )
        state.setdefault("sweeps", {})[base.name] = sweep
    ctx.check.record(f"{phase} sweep({base.name})", problems)


def _round(ctx, state, round_: int) -> None:
    from repro.dse import ConfigSpace, Explorer, GridStrategy
    from repro.service import ArtifactStore

    for base in state["specs"]:
        spec = core.variant(base, round_)
        root = ctx.tmp / f"dse-{base.name}-{round_}"
        store = ArtifactStore(root)
        with Explorer(
            spec, ConfigSpace(**SPACE), cache=store, processes=1, engine=ENGINE
        ) as explorer:
            with ctx.meter.wave("cold", round_) as wave:
                sweep = wave.timed(
                    base.name, base.name,
                    lambda: explorer.run(GridStrategy()), weight=16,
                )
            _verify(ctx, state, base, "cold", sweep, expect_hits=False)
            for _ in range(WARM_BATCHES):
                sweeps = []
                with ctx.meter.wave("warm", round_) as wave:
                    for i in range(WARM_BATCH):
                        if i % 2 == 0:
                            store.drop_memory()
                        sweeps.append(wave.timed(
                            base.name, base.name,
                            lambda: explorer.run(GridStrategy()), weight=16,
                        ))
                for sweep in sweeps:
                    _verify(ctx, state, base, "warm", sweep, expect_hits=True)
        shutil.rmtree(root, ignore_errors=True)


def measure(ctx, state) -> None:
    ctx.rounds(lambda round_: _round(ctx, state, round_), ROUND_NOMINAL_S)


def quality(state) -> dict:
    results = [
        r for sweep in state.get("sweeps", {}).values() for r in sweep.results
        if r.ok
    ]
    return core.quality_geomeans(
        [r.cycles for r in results], [r.total_aluts for r in results],
        [r.energy_uj for r in results],
    )


# --------------------------------------------------------------------------
# Traced replay
# --------------------------------------------------------------------------


def trace(ctx, state) -> dict:
    """One cold and one warm sweep whole, then the evaluator's steps one
    by one: key, compile, interned workload, clone, evaluate, store."""
    from repro.dse import ConfigSpace, Explorer, GridStrategy
    from repro.service import ArtifactStore

    tr = ctx.tracer
    for base in state["specs"]:
        spec = core.variant(base, 0)
        root = ctx.tmp / f"dse-trace-{base.name}"
        store = ArtifactStore(root)
        with Explorer(
            spec, ConfigSpace(**SPACE), cache=store, processes=1, engine=ENGINE
        ) as explorer:
            with tr.root(f"black-box/{base.name}", core.BLACK_BOX) as sp:
                sweep = core.attempt(lambda: explorer.run(GridStrategy()))
            _verify(ctx, state, base, "cold", sweep, expect_hits=False)
            if not isinstance(sweep, Exception):
                sp.counts.update({
                    "dse.points": len(sweep.results),
                    "dse.frontier_size": len(sweep.frontier()),
                })
                state.setdefault("ok", []).extend(r.ok for r in sweep.results)
        shutil.rmtree(root, ignore_errors=True)
    for base in state["specs"]:
        with tr.root(f"staged/{base.name}"):
            _staged(ctx, state, core.variant(base, 1))

    totals = tr.layer_totals(ctx.layer_names)
    totals["dse.ok_ratio"] = sum(state["ok"]) / len(state["ok"])
    totals["hw.kcycles_per_s.specialized"] = (
        state["staged_cycles"] / 1e3 / totals["hw.sim_s.specialized"]
    )
    totals.update(quality(state))
    totals["bench.trace_overhead_ratio"] = tr.overhead_ratio()
    return totals


def _staged(ctx, state, spec) -> None:
    from repro.dse import ConfigSpace, Evaluator, result_key
    from repro.dse.evaluate import DEFAULT_EVAL_MAX_CYCLES
    from repro.fleet import interned_workload
    from repro.hw import AcceleratorSystem, DirectMappedCache
    from repro.service import ArtifactStore

    tr = ctx.tracer
    points = ConfigSpace(**SPACE).grid()
    evaluator = Evaluator(spec, engine=ENGINE)
    with tr.span("dse.result_key_s"):
        keys = [
            result_key(spec, point, DEFAULT_EVAL_MAX_CYCLES, ENGINE)
            for point in points
        ]
    compiled = {}
    for point in points:
        if point.compile_key not in compiled:
            with tr.span("pipeline.cgpa_compile_s"):
                compiled[point.compile_key] = evaluator.compile(point)

    # The workload image: first sight, memo hit, and what a clone copies.
    first = compiled[points[0].compile_key]
    with tr.span("fleet.interned_first_s"):
        memory, globals_, args = interned_workload(first.module, spec)
    for _ in range(IMAGE_REPEATS):
        with tr.span("fleet.interned_hit_s"):
            interned_workload(first.module, spec)
        with tr.span("interp.clone_s") as sp:
            memory.clone()
    used = len(memory.snapshot())
    sp.counts["interp.image_used_bytes"] = used
    # The allocated image has no public accessor; fall back to the used part.
    sp.counts["interp.image_bytes"] = len(getattr(memory, "_data", b"")) or used

    # One point's simulation alone: closures built, then reused.
    for metric in ("hw.sim_first_s.specialized", "hw.sim_s.specialized"):
        memory, globals_, args = interned_workload(first.module, spec)
        with tr.span("hw.build_s"):
            system = AcceleratorSystem(
                first.module, memory, channels=first.result.channels,
                cache=DirectMappedCache(
                    n_lines=points[0].cache_lines, ports=points[0].cache_ports
                ),
                global_addresses=globals_, engine=ENGINE,
            )
        with tr.span(metric):
            sim = system.run(spec.measure_entry, args)
    state["staged_cycles"] = state.get("staged_cycles", 0) + sim.cycles

    # Every point through the evaluator (compiles are memo hits now).
    results = []
    for point in points:
        hit = evaluator.compile(point) is compiled[point.compile_key]
        with tr.span("dse.evaluate_s", **{"dse.compile_memo_hits": int(hit)}):
            results.append(evaluator.evaluate(point))
    problems = [
        f"{r.point.label}: {r.status}" for r in results if not r.ok
    ] + [
        f"{r.point.label}: checksum != oracle" for r in results
        if r.ok and not core.close(r.checksum, state["refs"][spec.name].checksum)
    ]
    ctx.check.record(f"staged evaluate({spec.name})", problems)

    # The store as the sweep uses it: write, read hot, read from disk.
    root = ctx.tmp / f"dse-staged-{spec.name}"
    store = ArtifactStore(root)
    payloads = [r.to_dict() for r in results]
    for key, payload in zip(keys, payloads):
        with tr.span("service.store_put_s"):
            store.put(key, payload)
    for key in keys:
        with tr.span("service.store_get_lru_s"):
            store.get(key)
    store.drop_memory()
    got = []
    for key in keys:
        with tr.span("service.store_get_disk_s"):
            got.append(store.get(key))
    ctx.check.record(
        f"store round trip({spec.name})",
        [] if got == payloads else ["store returned different artifacts"],
    )
    shutil.rmtree(root, ignore_errors=True)
