"""oneshot — the designer's one-kernel path.

Every kernel, each a ``harness.runner.run_backend(spec, "cgpa-p1")`` with
the library-default engine.  ``interp`` (workload set-up and checksum)
and ``hw`` (simulate) do ~95 % of the work here; compile is ~20 ms of a
0.05–2.5 s call, so a front-end or partitioner change is predicted not
to move this workload at all.

A *cold* pass runs each kernel under source text the process has not
seen; the *warm* pass repeats the same calls.  Nothing memoises across
``run_backend`` calls today, so warm equals cold — the warm number moves
only when a layer starts reusing work between identical calls.
"""

from __future__ import annotations

import core

#: Seconds one round (nine cold + nine warm run_backend calls) costs on the reference
#: box; frozen, it plans how many rounds ``--seconds`` buys.
ROUND_NOMINAL_S = 9.0


def setup(ctx) -> dict:
    specs = core.select_kernels(ctx.seed, ctx.quick)
    return {
        "specs": specs,
        "refs": {s.name: core.oracle_reference(s) for s in specs},
    }


def _verify(ctx, state, spec, result) -> None:
    problems = core.problems_of(result)
    if not problems:
        problems += core.against_reference(
            state["refs"][spec.name], result.return_value, result.checksum
        )
        for what in ("cycles", "aluts", "energy_uj"):
            problems += ctx.check.pinned(
                f"{spec.name}.{what}", getattr(result, what)
            )
    ctx.check.record(f"run_backend({spec.name})", problems)


def _pass(ctx, state, phase: str, round_: int) -> None:
    from repro.harness.runner import run_backend

    for base in state["specs"]:
        spec = core.variant(base, round_)
        with ctx.meter.wave(phase, round_) as wave:
            result = wave.timed(
                base.name, base.name, lambda: run_backend(spec, "cgpa-p1")
            )
        _verify(ctx, state, base, result)
        state.setdefault("results", {})[base.name] = result


def _round(ctx, state, round_: int) -> None:
    _pass(ctx, state, "cold", round_)
    _pass(ctx, state, "warm", round_)


def measure(ctx, state) -> None:
    ctx.rounds(lambda round_: _round(ctx, state, round_), ROUND_NOMINAL_S)


def quality(state) -> dict:
    """Design-quality numbers of the last pass (exact, seed-dependent)."""
    results = [r for r in state.get("results", {}).values()
               if not isinstance(r, Exception)]
    return core.quality_geomeans(
        [r.cycles for r in results], [r.aluts for r in results],
        [r.energy_uj for r in results],
    )


# --------------------------------------------------------------------------
# Traced replay
# --------------------------------------------------------------------------


def trace(ctx, state) -> dict:
    """One pass through ``run_backend`` whole, then the same work stage
    by stage through the public functions ``run_backend`` is made of,
    plus the three engines and the two baselines it is compared with."""
    from repro.harness.runner import run_backend

    tr = ctx.tracer
    per_kernel = []
    for base in state["specs"]:
        spec = core.variant(base, 0)
        with tr.root(f"black-box/{base.name}", core.BLACK_BOX):
            with tr.span("harness.run_backend_s"):
                result = core.attempt(lambda: run_backend(spec, "cgpa-p1"))
        _verify(ctx, state, base, result)
        state.setdefault("results", {})[base.name] = result
    for base in state["specs"]:
        spec = core.variant(base, 1)
        with tr.root(f"staged/{base.name}"):
            facts = _staged(ctx, spec)
        problems = core.against_reference(
            state["refs"][base.name], facts["return_value"], facts["checksum"]
        )
        if len(set(facts["cycles"].values())) != 1:
            problems.append(f"engines disagree on cycles: {facts['cycles']}")
        if len(set(facts["liveouts"].values())) != 1:
            problems.append("engines disagree on liveouts")
        facts["agree"] = not problems
        ctx.check.record(f"staged({base.name})", problems)
        per_kernel.append((base, facts))

    totals = tr.layer_totals(ctx.layer_names)
    staged_stages = (
        "frontend.compile_c_s", "transforms.optimize_s",
        "pipeline.cgpa_compile_s", "interp.setup_s", "hw.sim_s.event",
        "cost.area_s", "cost.power_s", "interp.check_s",
    )
    totals["harness.overhead_s"] = totals["harness.run_backend_s"] - sum(
        totals[name] for name in staged_stages
    )
    totals["frontend.lower_self_s"] = (
        totals["frontend.compile_c_s"]
        - totals["frontend.parse_s"] - totals["frontend.analyze_s"]
    )
    for engine in ("lockstep", "event", "specialized"):
        totals[f"hw.kcycles_per_s.{engine}"] = (
            sum(f["cycles"][engine] for _, f in per_kernel) / 1e3
            / totals[f"hw.sim_s.{engine}"]
        )
    totals["interp.steps_per_s"] = (
        (totals["interp.setup_steps"] + totals["interp.check_steps"])
        / (totals["interp.setup_s"] + totals["interp.check_s"])
    )
    totals["hw.cache_hit_rate"] = sum(
        f["cache_hit_rate"] for _, f in per_kernel
    ) / len(per_kernel)
    totals["hw.engines_agree"] = sum(f["agree"] for _, f in per_kernel)
    totals["harness.speedup_vs_legup_geomean"] = core.geomean(
        [f["legup_cycles"] / f["cycles"]["event"] for _, f in per_kernel]
    )
    errors = [
        abs(f["mips_cycles"] / f["cycles"]["event"] - spec.paper.speedup_cgpa)
        / spec.paper.speedup_cgpa
        for spec, f in per_kernel
        if spec.paper is not None
    ]
    if errors:
        totals["harness.paper_speedup_rel_err"] = sum(errors) / len(errors)
    totals.update(quality(state))
    totals["bench.trace_overhead_ratio"] = tr.overhead_ratio()
    return totals


def _staged(ctx, spec) -> dict:
    from repro.analysis import LoopInfo, PointsTo, ProgramDependenceGraph
    from repro.cost import power_report
    from repro.frontend import analyze, compile_c, parse, tokenize
    from repro.harness.runner import cgpa_area
    from repro.hw import AcceleratorSystem, DirectMappedCache, run_on_mips
    from repro.interp import Interpreter, to_unsigned
    from repro.ir import I32
    from repro.kernels import KARGS_GLOBAL
    from repro.pipeline import cgpa_compile, partition_loop, transform_loop
    from repro.transforms import optimize_module

    tr = ctx.tracer

    # -- front end, whole and in parts ------------------------------------
    with tr.span("frontend.compile_c_s") as sp:
        module = compile_c(spec.source, spec.name)
    sp.counts["frontend.ir_insts"] = core.ir_instructions(module)
    with tr.span("frontend.tokenize_s") as sp:
        sp.counts["frontend.tokens"] = len(tokenize(spec.source))
    with tr.span("frontend.parse_s"):
        unit = parse(spec.source)
    with tr.span("frontend.analyze_s"):
        analyze(unit, spec.name)
    with tr.span("transforms.optimize_s") as sp:
        optimize_module(module)
    sp.counts["transforms.ir_insts_after"] = core.ir_instructions(module)

    # -- the pipeline compile, whole (this is the module that runs) -------
    shapes = spec.shapes_for(module)
    with tr.span("pipeline.cgpa_compile_s") as sp:
        compiled = cgpa_compile(module, spec.accel_function, shapes=shapes)
        sp.counts["pipeline.stages"] = len(compiled.spec.stages)
        sp.counts["pipeline.channels"] = len(compiled.result.channels)
        sp.counts["pipeline.tasks"] = len(compiled.result.tasks)

    # -- and in parts, on a second copy of the optimised module -----------
    plain = compile_c(spec.source, spec.name)
    optimize_module(plain)
    function = plain.get_function(spec.accel_function)
    plain_shapes = spec.shapes_for(plain)
    with tr.span("analysis.loopinfo_s"):
        loop = LoopInfo(function).top_level()[0]
    with tr.span("analysis.pointsto_s"):
        pointsto = PointsTo(plain)
    with tr.span("analysis.pdg_s") as sp:
        pdg = ProgramDependenceGraph(loop, pointsto, plain_shapes, None)
        sp.counts["analysis.pdg_nodes"] = len(pdg.nodes)
        sp.counts["analysis.pdg_edges"] = len(pdg.edges)
        sp.counts["analysis.sccs"] = len(pdg.sccs)
    with tr.span("pipeline.partition_s"):
        partition = partition_loop(pdg)
    # The baselines run the unpipelined module: set it up before the
    # transform rewrites it.
    with tr.span("bench.baseline_setup"):
        base = Interpreter(plain)
        base.call(spec.setup_function, list(spec.setup_args))
        base_kargs = base.global_addresses[KARGS_GLOBAL]
        base_args = [
            to_unsigned(base.memory.load(base_kargs + 4 * i, I32), 32)
            for i in range(spec.n_kernel_args)
        ]
    with tr.span("hw.mips_s"):
        mips = run_on_mips(
            plain, spec.measure_entry, base_args, base.memory.clone(),
            cache=DirectMappedCache(), global_addresses=base.global_addresses,
        )
    with tr.span("hw.legup_s"):
        legup = AcceleratorSystem(
            plain, base.memory.clone(), cache=DirectMappedCache(ports=8),
            global_addresses=base.global_addresses,
        ).run(spec.measure_entry, base_args)
    with tr.span("pipeline.transform_s"):
        transform_loop(plain, partition)

    # -- workload image ----------------------------------------------------
    with tr.span("interp.setup_s") as sp:
        interp = Interpreter(compiled.module)
        interp.call(spec.setup_function, list(spec.setup_args))
        sp.counts["interp.setup_steps"] = interp.steps
    image, globals_ = interp.memory, interp.global_addresses
    kargs = globals_[KARGS_GLOBAL]
    args = [
        to_unsigned(image.load(kargs + 4 * i, I32), 32)
        for i in range(spec.n_kernel_args)
    ]

    # -- three engines on three copies of one image ------------------------
    facts: dict = {"cycles": {}, "liveouts": {}}
    runs = (
        ("lockstep", "hw.sim_s.lockstep"),
        ("specialized", "hw.sim_first_s.specialized"),
        ("specialized", "hw.sim_s.specialized"),
        ("event", "hw.sim_s.event"),  # last: its memory feeds the check
    )
    for engine, metric in runs:
        with tr.span("bench.clone"):
            memory = image.clone() if engine != "event" else image
        with tr.span("hw.build_s"):
            system = AcceleratorSystem(
                compiled.module, memory,
                channels=compiled.result.channels,
                cache=DirectMappedCache(ports=8),
                global_addresses=globals_, engine=engine,
            )
        with tr.span(metric) as sp:
            sim = system.run(spec.measure_entry, args)
            if engine == "event":
                sp.counts["hw.cycles"] = sim.cycles
                sp.counts["hw.stall_cycles"] = sum(
                    cycles
                    for worker in sim.stall_breakdown.values()
                    for category, cycles in worker.items()
                    if category.endswith("_stall")
                )
        facts["cycles"][engine] = sim.cycles
        facts["liveouts"][engine] = sim.liveouts_checksum()

    # -- cost and the checksum --------------------------------------------
    with tr.span("cost.area_s") as sp:
        area = cgpa_area(compiled)
        sp.counts["cost.total_aluts"] = area.total_aluts
    with tr.span("cost.power_s") as sp:
        power = power_report(sim, area, list(compiled.module.functions.values()))
        sp.counts["cost.energy_uj"] = power.energy_uj
    with tr.span("interp.check_s") as sp:
        checker = Interpreter(compiled.module, image, global_addresses=globals_)
        checksum = checker.call(spec.check_function, [])
        sp.counts["interp.check_steps"] = checker.steps

    facts.update(
        return_value=sim.return_value,
        checksum=checksum,
        cache_hit_rate=sim.cache_stats.hit_rate,
        mips_cycles=mips.cycles,
        legup_cycles=legup.cycles,
    )
    return facts
