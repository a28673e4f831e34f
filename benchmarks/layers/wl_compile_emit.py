"""compile-emit — C source to linted Verilog, no simulation.

Every kernel x {p1, none, p2 where Table 2 lists one} x n_workers
{1, 2, 4}: 66 designs a pass through ``compile_c -> optimize_module ->
cgpa_compile -> generate_verilog_hierarchy -> lint_verilog``.  The only
workload where ``frontend`` / ``analysis`` / ``pipeline`` / ``rtl`` /
``vsim.lint`` dominate, so a verifier run after every pass, or a refactor
of the partitioner or emitter, shows here and nowhere else.

The oracle is Table 2: the stage signature of every p1/p2 design must be
the paper's hand-written shape, and every emitted module must lint clean.
"""

from __future__ import annotations

import core

#: Seconds one round (66 cold + 66 warm designs) costs on the reference
#: box; frozen, it plans how many rounds ``--seconds`` buys.
ROUND_NOMINAL_S = 4.0

N_WORKERS = (1, 2, 4)


def setup(ctx) -> dict:
    from repro.pipeline import ReplicationPolicy

    designs = []
    for spec in core.select_kernels(ctx.seed, ctx.quick):
        policies = [ReplicationPolicy.P1, ReplicationPolicy.NONE]
        if spec.supports_p2:
            policies.append(ReplicationPolicy.P2)
        for policy in policies:
            for n_workers in N_WORKERS:
                designs.append((spec, policy, n_workers))
    return {"designs": designs}


def _key(spec, policy, n_workers) -> str:
    return f"{spec.name}/{policy.name.lower()}/w{n_workers}"


def _design(spec, policy, n_workers, tr) -> dict:
    """One design, through the public function of each layer in turn."""
    from repro.frontend import compile_c
    from repro.pipeline import cgpa_compile
    from repro.rtl import generate_verilog_hierarchy
    from repro.transforms import optimize_module
    from repro.vsim import lint_verilog

    with tr.span("frontend.compile_c_s"):
        module = compile_c(spec.source, spec.name)
    with tr.span("transforms.optimize_s"):
        optimize_module(module)
    shapes = spec.shapes_for(module)
    with tr.span("pipeline.cgpa_compile_s"):
        compiled = cgpa_compile(
            module, spec.accel_function, shapes=shapes,
            policy=policy, n_workers=n_workers,
        )
    verilog_bytes = 0
    issues = []
    for function in [*compiled.result.tasks, compiled.result.parent]:
        with tr.span("rtl.emit_s") as emit:
            text = generate_verilog_hierarchy(function)
        with tr.span("vsim.lint_s") as lint:
            found = lint_verilog(text)
        emit.counts["rtl.verilog_bytes"] = len(text.encode())
        lint.counts["vsim.lint_issues"] = len(found)
        verilog_bytes += len(text.encode())
        issues += found
    return {
        "signature": compiled.signature,
        "verilog_bytes": verilog_bytes,
        "issues": issues,
    }


def _verify(ctx, state, design, out) -> None:
    from repro.pipeline import ReplicationPolicy

    spec, policy, n_workers = design
    key = _key(*design)
    problems = core.problems_of(out)
    if not problems:
        expected = {
            ReplicationPolicy.P1: spec.expected_p1,
            ReplicationPolicy.P2: spec.expected_p2,
        }.get(policy)
        if expected is not None and out["signature"] != expected:
            problems.append(
                f"stage shape {out['signature']} != Table 2's {expected}"
            )
        if out["issues"]:
            problems.append(f"lint: {out['issues'][:2]}")
        problems += ctx.check.pinned(f"{key}.verilog_bytes", out["verilog_bytes"])
        state.setdefault("bytes", {})[key] = out["verilog_bytes"]
    ctx.check.record(f"design({key})", problems)


def _pass(ctx, state, phase: str, round_: int) -> None:
    by_kernel: dict[str, list] = {}
    for design in state["designs"]:
        by_kernel.setdefault(design[0].name, []).append(design)
    for name, designs in by_kernel.items():
        # One wave per kernel: 6-9 designs (~0.2 s) between calibrations.
        outs = []
        with ctx.meter.wave(phase, round_) as wave:
            for base, policy, n_workers in designs:
                spec = core.variant(base, round_)
                outs.append(wave.timed(
                    name, _key(base, policy, n_workers),
                    lambda: _design(spec, policy, n_workers, ctx.tracer),
                ))
        for design, out in zip(designs, outs):
            _verify(ctx, state, design, out)


def _round(ctx, state, round_: int) -> None:
    _pass(ctx, state, "cold", round_)
    _pass(ctx, state, "warm", round_)


def measure(ctx, state) -> None:
    ctx.rounds(lambda round_: _round(ctx, state, round_), ROUND_NOMINAL_S)


def quality(state) -> dict:
    sizes = list(state.get("bytes", {}).values())
    return {"rtl.verilog_bytes_geomean": core.geomean(sizes)} if sizes else {}


# --------------------------------------------------------------------------
# Traced replay
# --------------------------------------------------------------------------


def trace(ctx, state) -> dict:
    """The pass untraced, then with a span round each layer call, then
    the inside of ``compile_c`` and ``cgpa_compile`` part by part."""
    tr = ctx.tracer
    for design in state["designs"]:
        spec = core.variant(design[0], 0)
        with tr.root(f"black-box/{_key(*design)}", core.BLACK_BOX):
            out = core.attempt(
                lambda: _design(spec, *design[1:], core.NullTracer())
            )
        _verify(ctx, state, design, out)
    for design in state["designs"]:
        spec = core.variant(design[0], 1)
        with tr.root(f"staged/{_key(*design)}"):
            out = core.attempt(lambda: _design(spec, *design[1:], tr))
        _verify(ctx, state, design, out)
    # Parts of the front end and the partitioner depend on the source and
    # the policy, not on n_workers: replay them once per (kernel, policy).
    seen = set()
    for base, policy, n_workers in state["designs"]:
        if (base.name, policy) in seen:
            continue
        seen.add((base.name, policy))
        with tr.root(f"parts/{_key(base, policy, n_workers)}", "bench.parts"):
            _parts(tr, core.variant(base, 1), policy, n_workers)

    totals = tr.layer_totals(ctx.layer_names)
    totals["frontend.lower_self_s"] = (
        tr.total("bench.compile_c")
        - totals["frontend.parse_s"] - totals["frontend.analyze_s"]
    )
    totals.update(quality(state))
    totals["bench.trace_overhead_ratio"] = tr.overhead_ratio()
    return totals


def _parts(tr, spec, policy, n_workers) -> None:
    from repro.analysis import LoopInfo, PointsTo, ProgramDependenceGraph
    from repro.frontend import analyze, compile_c, parse, tokenize
    from repro.pipeline import partition_loop, transform_loop
    from repro.rtl import schedule_function
    from repro.transforms import optimize_module

    with tr.span("bench.compile_c"):
        module = compile_c(spec.source, spec.name)
    with tr.span("frontend.tokenize_s") as sp:
        sp.counts["frontend.tokens"] = len(tokenize(spec.source))
    with tr.span("frontend.parse_s"):
        unit = parse(spec.source)
    with tr.span("frontend.analyze_s"):
        analyze(unit, spec.name)
    before = core.ir_instructions(module)
    optimize_module(module)
    after = core.ir_instructions(module)
    function = module.get_function(spec.accel_function)
    shapes = spec.shapes_for(module)
    with tr.span("analysis.loopinfo_s"):
        loop = LoopInfo(function).top_level()[0]
    with tr.span("analysis.pointsto_s"):
        pointsto = PointsTo(module)
    with tr.span("analysis.pdg_s") as sp:
        pdg = ProgramDependenceGraph(loop, pointsto, shapes, None)
    sp.counts.update({
        "frontend.ir_insts": before,
        "transforms.ir_insts_after": after,
        "analysis.pdg_nodes": len(pdg.nodes),
        "analysis.pdg_edges": len(pdg.edges),
        "analysis.sccs": len(pdg.sccs),
    })
    with tr.span("pipeline.partition_s"):
        partition = partition_loop(pdg, n_workers=n_workers, policy=policy)
    with tr.span("pipeline.transform_s") as sp:
        result = transform_loop(module, partition)
    sp.counts.update({
        "pipeline.stages": len(partition.stages),
        "pipeline.channels": len(result.channels),
        "pipeline.tasks": len(result.tasks),
    })
    for task in [*result.tasks, result.parent]:
        with tr.span("rtl.schedule_s") as sp:
            schedule = schedule_function(task)
        sp.counts["rtl.fsm_states"] = schedule.total_states
