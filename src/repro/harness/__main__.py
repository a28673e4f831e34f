"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness                # everything (Table 2/3, Fig 4, tradeoff)
    python -m repro.harness --kernel em3d  # one kernel, all backends
    python -m repro.harness --scalability  # the Appendix B.1 worker sweep
    python -m repro.harness trace ks       # traced run: Chrome trace + VCD
                                           # + bottleneck analysis on disk
    python -m repro.harness dse ks         # design-space sweep + Pareto
                                           # frontier + JSON on disk
    python -m repro.harness faults ks      # resilience sweep: seeded fault
                                           # plans + watchdog diagnosis
    python -m repro.harness rtl ks         # co-simulate the emitted
                                           # Verilog against the oracle
    python -m repro.harness serve          # long-lived compile/simulate/
                                           # explore HTTP service
    python -m repro.harness obs query      # query the run-record spine
    python -m repro.harness obs diff A B   # regression diff two journals
    python -m repro.harness obs report     # render the HTML dashboard

The ``trace``/``dse``/``faults``/``rtl`` subcommands persist their
result JSON in the content-addressed artifact store (default
``./.cgpa-store``, the same store the service uses), with the
historical output paths kept as symlinks/copies of the stored artifact.
Every run-producing path additionally journals a versioned
:class:`~repro.obs.RunEnvelope` into ``<store>/envelopes.jsonl``; the
``obs`` subcommand queries, diffs and renders that journal.

Every subcommand turns a simulator or compiler failure
(:class:`~repro.errors.CgpaError`) into a one-line ``error:`` diagnosis
on stderr and exit status 1 — no tracebacks for model-level failures.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ..hw import DEFAULT_ENGINE, ENGINES
from ..kernels import ALL_KERNELS, KERNELS_BY_NAME
from ..telemetry import (
    MemoryTraceSink,
    analyze,
    dump_vcd,
)
from .experiments import figure4, run_all_kernels, scalability, table2, table3, tradeoff
from .report import (
    format_bottlenecks,
    format_figure4,
    format_scalability,
    format_stall_breakdown,
    format_table2,
    format_table3,
    format_tradeoff,
)
from .runner import run_backend, run_kernel


def _positive_int(text: str) -> int:
    """argparse type for knobs that must be >= 1 (workers, FIFO depth...).

    Turns a bad value into a one-line ``argparse`` usage error instead of
    a deep traceback out of the partitioner or simulator.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _csv_positive_ints(text: str) -> list[int]:
    """argparse type: comma-separated list of >= 1 integers."""
    return [_positive_int(item) for item in text.split(",") if item]


# One declaration per option that several subcommands share; each
# subcommand supplies only its own help text (and worker default).

#: ``--engine`` help of the trace and default-run parsers.
_ENGINE_HELP = (
    "simulator engine: closure-compiled ('specialized') or interpretive "
    "('event') workers under the event-driven skip-ahead clock, or the "
    "tick-every-cycle lockstep oracle; cycle counts are identical"
)


def _add_engine(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--engine", default=DEFAULT_ENGINE, choices=ENGINES,
        help=f"{help} (default: {DEFAULT_ENGINE})",
    )


def _add_max_cycles(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--max-cycles", type=_positive_int, default=None, help=help)


def _add_workers(parser: argparse.ArgumentParser, default: int, help: str) -> None:
    parser.add_argument("--workers", type=_positive_int, default=default, help=help)


def _add_fifo_depth(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--fifo-depth", type=_positive_int, default=16, help=help)


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    """``--store``: where result artifacts are content-addressed."""
    parser.add_argument(
        "--store", type=pathlib.Path, default=pathlib.Path(".cgpa-store"),
        metavar="DIR",
        help="content-addressed artifact store directory, shared with "
        "`repro.harness serve` and the DSE result cache "
        "(default: ./.cgpa-store)",
    )


def _envelope_writer(store_root: pathlib.Path):
    """The run-record writer for one store root.

    All subcommand result writes route through
    :meth:`repro.obs.emit.EnvelopeWriter.publish_run`: the legacy
    artifact (and its historical mirror path) is written exactly as
    before, and a :class:`~repro.obs.RunEnvelope` lands in the store's
    ``envelopes.jsonl`` journal as the canonical run record.
    """
    from ..obs.emit import EnvelopeWriter

    return EnvelopeWriter(store_root)


def dse_main(argv: list[str]) -> int:
    """``python -m repro.harness dse <kernel>`` — design-space sweep."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness dse",
        description="Explore the accelerator knob space for one kernel, "
        "print the Pareto frontier over (cycles, total_aluts, energy_uj) "
        "and write the full sweep as JSON.  Results are cached on disk, "
        "so repeated sweeps only simulate new points.",
    )
    parser.add_argument(
        "kernel", choices=sorted(KERNELS_BY_NAME),
        help="kernel whose design space to explore",
    )
    parser.add_argument(
        "--strategy", default="grid",
        choices=["grid", "random", "hillclimb"],
        help="exhaustive grid, seeded random sample, or greedy hill-climb "
        "(default: grid)",
    )
    parser.add_argument(
        "--policies", default=None,
        help="comma-separated replication policies to sweep "
        "(default: p1,none plus p2 where Table 2 lists one)",
    )
    parser.add_argument(
        "--workers-list", type=_csv_positive_ints, default=[1, 2, 4],
        metavar="N,N,...",
        help="parallel-stage worker counts to sweep (default: 1,2,4)",
    )
    parser.add_argument(
        "--fifo-depths", type=_csv_positive_ints, default=[4, 16],
        metavar="N,N,...",
        help="FIFO depths to sweep (default: 4,16)",
    )
    parser.add_argument(
        "--cache-lines", type=_csv_positive_ints, default=[512],
        metavar="N,N,...",
        help="cache line counts to sweep; powers of two (default: 512)",
    )
    parser.add_argument(
        "--cache-ports", type=_csv_positive_ints, default=[8],
        metavar="N,N,...",
        help="cache port counts to sweep (default: 8)",
    )
    parser.add_argument(
        "--caches", default="shared", choices=["shared", "private", "both"],
        help="cache organisations to sweep (default: shared)",
    )
    parser.add_argument(
        "--samples", type=_positive_int, default=8,
        help="points to draw with --strategy random (default: 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="random-sample seed (default: 0)",
    )
    parser.add_argument(
        "--max-evals", type=_positive_int, default=24,
        help="evaluation budget for --strategy hillclimb (default: 24)",
    )
    parser.add_argument(
        "--objective", default="cycles",
        choices=["cycles", "total_aluts", "energy_uj"],
        help="hill-climb objective to minimise (default: cycles)",
    )
    parser.add_argument(
        "--processes", type=_positive_int, default=1,
        help="pool size for parallel evaluation (default: 1); the frontier "
        "is byte-identical at any pool size",
    )
    _add_max_cycles(
        parser,
        help="per-point simulated-cycle budget; points exceeding it are "
        "recorded as status=timeout (default: 50M)",
    )
    _add_engine(parser, "simulator engine")
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=pathlib.Path(".dse-cache"),
        help="on-disk result cache location (default: ./.dse-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="evaluate every point fresh, and do not store results",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep: points already persisted to "
        "the result cache (checkpointed per shard as they complete) are "
        "replayed instead of re-simulated; the final report is "
        "byte-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path("benchmarks/results"),
        help="directory for the sweep JSON mirror (default: "
        "benchmarks/results; the canonical copy lands in --store)",
    )
    _add_store_argument(parser)
    args = parser.parse_args(argv)
    if args.resume and args.no_cache:
        parser.error("--resume needs the result cache; drop --no-cache")

    from ..dse import (
        DEFAULT_EVAL_MAX_CYCLES,
        ConfigSpace,
        Explorer,
        GridStrategy,
        HillClimbStrategy,
        RandomStrategy,
    )
    from ..errors import CgpaError
    from ..service.store import ArtifactStore
    from .report import format_pareto

    spec = KERNELS_BY_NAME[args.kernel]
    if args.policies is not None:
        policies = [p for p in args.policies.split(",") if p]
    else:
        policies = ["p1", "none"] + (["p2"] if spec.supports_p2 else [])
    private = {"shared": [False], "private": [True], "both": [False, True]}
    try:
        space = ConfigSpace(
            policies=policies,
            n_workers=args.workers_list,
            fifo_depths=args.fifo_depths,
            private_caches=private[args.caches],
            cache_lines=args.cache_lines,
            cache_ports=args.cache_ports,
        )
    except CgpaError as exc:
        parser.error(str(exc))

    strategy = {
        "grid": lambda: GridStrategy(),
        "random": lambda: RandomStrategy(args.samples, seed=args.seed),
        "hillclimb": lambda: HillClimbStrategy(
            objective=args.objective, max_evals=args.max_evals
        ),
    }[args.strategy]()
    writer = _envelope_writer(args.store)
    # No warm LRU: sweep pools share the cache directory across
    # *processes*, so disk is the single source of truth — a torn or
    # corrupted entry is a miss even for the process that just wrote it.
    cache = None if args.no_cache else ArtifactStore(
        args.cache_dir, lru_entries=0
    )
    explorer = Explorer(
        spec,
        space,
        cache=cache,
        processes=args.processes,
        max_cycles=args.max_cycles or DEFAULT_EVAL_MAX_CYCLES,
        engine=args.engine,
        envelopes=writer,
    )
    print(f"Exploring {space.size}-point space for {spec.name} "
          f"({args.strategy} strategy, {args.processes} process(es))...")
    try:
        sweep = explorer.run(strategy)
    finally:
        explorer.close()
    if args.resume:
        from ..obs.emit import fleet_envelope

        detail = (
            f"replayed {sweep.cache_hits} point(s) from cache, "
            f"computed {sweep.cache_misses}"
        )
        writer.write(fleet_envelope(
            {"kind": "resume", "task_index": None,
             "attempt": sweep.cache_hits, "detail": detail},
            extra={"subsystem": "dse", "kernel": spec.name},
        ))
        print(f"resumed: {detail}", file=sys.stderr)

    from ..service.contracts import JobRequest

    request = JobRequest.make("dse", spec.name, options={
        "strategy": args.strategy,
        "policies": policies,
        "n_workers": args.workers_list,
        "fifo_depths": args.fifo_depths,
        "private_caches": private[args.caches],
        "cache_lines": args.cache_lines,
        "cache_ports": args.cache_ports,
        "samples": args.samples,
        "seed": args.seed,
        "max_evals": args.max_evals,
        "objective": args.objective,
        "engine": args.engine,
        "max_cycles": args.max_cycles or DEFAULT_EVAL_MAX_CYCLES,
    })
    from ..obs.emit import sweep_envelope

    out_path = args.out / f"dse_{spec.name}_{args.strategy}.json"
    stored = writer.publish_run(
        request.key, {"kind": "dse", **sweep.to_json_dict()},
        sweep_envelope(sweep, engine=args.engine, config_hash=request.key),
        mirror=out_path,
    )
    print()
    print(format_pareto(sweep))
    print()
    print(f"sweep took {sweep.elapsed_s:.1f}s; "
          f"artifact {request.key[:12]}… -> {stored} (mirror: {out_path})")
    return 0


def faults_main(argv: list[str]) -> int:
    """``python -m repro.harness faults <kernel>`` — resilience sweep."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness faults",
        description="Inject seeded fault plans (memory latency, cache-port "
        "storms, FIFO back-pressure, worker hangs, value corruption) into "
        "one kernel's pipeline.  Timing faults must leave liveouts "
        "bit-identical to the interpreter oracle; hangs must be diagnosed "
        "by the deadlock watchdog; corruption detection is reported.  "
        "Deterministic for a given (kernel, seed); the report is "
        "byte-identical across all three simulator engines.",
    )
    parser.add_argument(
        "kernel", choices=sorted(KERNELS_BY_NAME),
        help="kernel to stress",
    )
    parser.add_argument(
        "--plans", type=_positive_int, default=8,
        help="fault plans per class (timing/hang/corruption; default: 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="master seed deriving every plan's schedule (default: 0)",
    )
    _add_engine(
        parser,
        help="simulator engine; the report is byte-identical under any",
    )
    _add_workers(parser, 4, "parallel-stage worker count (paper default: 4)")
    _add_fifo_depth(parser, "FIFO entries per channel (paper default: 16)")
    _add_max_cycles(
        parser,
        help="per-plan simulated-cycle budget (default: 64x the fault-free "
        "baseline); exceeding it records the plan as outcome=timeout",
    )
    parser.add_argument(
        "--processes", type=_positive_int, default=1,
        help="pool size for parallel plan execution (default: 1); the "
        "report is byte-identical at any pool size",
    )
    parser.add_argument(
        "--json", type=pathlib.Path, default=None, metavar="PATH",
        help="also mirror the full sweep (plans + outcomes) JSON at PATH "
        "(the canonical copy lands in --store)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep: plan outcomes already "
        "checkpointed to --store are replayed instead of re-simulated; "
        "the final report is byte-identical to an uninterrupted run",
    )
    _add_store_argument(parser)
    args = parser.parse_args(argv)

    from ..faults.sweep import resilience_sweep

    spec = KERNELS_BY_NAME[args.kernel]
    writer = _envelope_writer(args.store)
    report = resilience_sweep(
        spec,
        n_plans=args.plans,
        seed=args.seed,
        engine=args.engine,
        n_workers=args.workers,
        fifo_depth=args.fifo_depth,
        max_cycles=args.max_cycles,
        processes=args.processes,
        store=writer.store,
        resume=args.resume,
        envelopes=writer,
    )
    print(report.format())
    if args.resume:
        # stderr: resume chatter must not perturb the byte-identical
        # stdout contract (the CI smoke diffs stdout across engines).
        print(f"resumed: {report.replayed}/{len(report.records)} plan(s) "
              f"replayed from checkpoints", file=sys.stderr)

    from ..service.contracts import JobRequest

    request = JobRequest.make("faults", spec.name, options={
        "plans": args.plans,
        "seed": args.seed,
        "engine": args.engine,
        "n_workers": args.workers,
        "fifo_depth": args.fifo_depth,
        "max_cycles": args.max_cycles,
    })
    from ..obs.emit import faults_envelope

    stored = writer.publish_run(
        request.key, {"kind": "faults", **report.to_dict()},
        faults_envelope(report, engine=args.engine, config_hash=request.key),
        mirror=args.json,
    )
    # stderr: stdout must stay byte-identical across engines (the CI
    # smoke diffs it), and the content key covers the engine option.
    print(f"artifact {request.key[:12]}… -> {stored}"
          + (f" (mirror: {args.json})" if args.json is not None else ""),
          file=sys.stderr)
    return 0


def rtl_main(argv: list[str]) -> int:
    """``python -m repro.harness rtl <kernel>`` — RTL co-simulation."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness rtl",
        description="Execute one kernel's emitted Verilog worker modules "
        "in the bundled two-state simulator (repro.vsim) and diff finish-"
        "time live-outs, FIFO traffic and the final memory image, bit for "
        "bit, against the interpreter oracle.  Exit status 1 on any "
        "mismatch.",
    )
    parser.add_argument(
        "kernel", choices=sorted(KERNELS_BY_NAME),
        help="kernel to co-simulate",
    )
    parser.add_argument(
        "--policy", default="p1", choices=["p1", "p2", "none"],
        help="replication policy to compile with (default: p1)",
    )
    _add_workers(
        parser, 2, 
        help="parallel-stage worker count (default: 2; every worker "
        "module is simulated gate-for-gate, so co-simulation favours "
        "small fleets)",
    )
    _add_fifo_depth(parser, "FIFO entries per channel (default: 16)")
    parser.add_argument(
        "--setup-args", type=_csv_positive_ints, default=None,
        metavar="N,N,...",
        help="workload-size arguments for the kernel's setup function "
        "(default: a scaled-down smoke workload)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="use the paper-scale workload instead of the smoke scale "
        "(slow: every clock edge is interpreted in Python)",
    )
    _add_max_cycles(parser, "per-round simulated-cycle budget (default: 500k)")
    parser.add_argument(
        "--emit-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="also write each round's Verilog modules plus oracle-"
        "scripted testbenches into DIR",
    )
    _add_store_argument(parser)
    args = parser.parse_args(argv)

    from ..vsim.cosim import run_rtl_cosim

    spec = KERNELS_BY_NAME[args.kernel]
    setup_args = args.setup_args
    if setup_args is None and args.full:
        setup_args = list(spec.setup_args)
    kwargs = {}
    if args.max_cycles is not None:
        kwargs["max_cycles"] = args.max_cycles
    report = run_rtl_cosim(
        spec,
        policy=args.policy,
        n_workers=args.workers,
        fifo_depth=args.fifo_depth,
        setup_args=setup_args,
        emit_dir=args.emit_dir,
        **kwargs,
    )
    print(report.format())

    from ..obs.emit import cosim_envelope
    from ..service.contracts import JobRequest

    options = {
        "policy": args.policy,
        "n_workers": args.workers,
        "fifo_depth": args.fifo_depth,
        "setup_args": setup_args,
    }
    if args.max_cycles is not None:
        options["max_cycles"] = args.max_cycles
    request = JobRequest.make("rtl", spec.name, options=options)
    stored = _envelope_writer(args.store).publish_run(
        request.key, {"kind": "rtl", **report.to_dict()},
        cosim_envelope(report, config_hash=request.key),
    )
    print(f"artifact {request.key[:12]}… -> {stored}", file=sys.stderr)
    return 0 if report.ok else 1


def trace_main(argv: list[str]) -> int:
    """``python -m repro.harness trace <kernel>`` — traced simulation."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description="Run one kernel with cycle tracing enabled and write "
        "a chrome://tracing JSON, a VCD waveform, and a stall/bottleneck "
        "analysis.",
    )
    parser.add_argument(
        "kernel", choices=sorted(KERNELS_BY_NAME),
        help="kernel to trace",
    )
    parser.add_argument(
        "--backend", default="cgpa-p1",
        choices=["legup", "cgpa-p1", "cgpa-p2", "cgpa-none"],
        help="hardware backend to trace (default: cgpa-p1)",
    )
    _add_workers(parser, 4, "parallel-stage worker count (paper default: 4)")
    _add_fifo_depth(parser, "FIFO entries per channel (paper default: 16)")
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("traces"),
        help="output directory (default: ./traces); the chrome trace "
        "JSON there is a mirror of the --store artifact",
    )
    _add_store_argument(parser)
    _add_engine(parser, _ENGINE_HELP)
    _add_max_cycles(
        parser,
        help="simulated-cycle budget; a run exceeding it fails with a "
        "one-line CycleBudgetExceeded diagnosis (default: 500M)",
    )
    args = parser.parse_args(argv)

    spec = KERNELS_BY_NAME[args.kernel]
    sink = MemoryTraceSink()
    result = run_backend(
        spec, args.backend, n_workers=args.workers,
        fifo_depth=args.fifo_depth, sink=sink, engine=args.engine,
        max_cycles=args.max_cycles,
    )
    sim = result.sim
    assert sim is not None  # hardware backends always carry a SimReport

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{spec.name}_{args.backend}"
    trace_path = args.out / f"{stem}.trace.json"
    vcd_path = args.out / f"{stem}.vcd"
    analysis_path = args.out / f"{stem}.bottleneck.txt"

    from ..cost import COST_MODEL_VERSION
    from ..service.store import content_key
    from ..telemetry.chrome_trace import to_chrome_trace

    # Traces have no JobRequest kind (they are a CLI-only artifact), but
    # they are content-addressed with the same discipline: everything
    # that determines the trace participates in the key.
    trace_key = content_key({
        "kind": "trace",
        "cost_model": COST_MODEL_VERSION,
        "kernel": spec.name,
        "source": spec.source,
        "backend": args.backend,
        "n_workers": args.workers,
        "fifo_depth": args.fifo_depth,
        "engine": args.engine,
        "max_cycles": args.max_cycles,
    })
    from ..obs.emit import sim_envelope

    _envelope_writer(args.store).publish_run(
        trace_key, to_chrome_trace(sink),
        sim_envelope(
            sim, kernel=spec.name, engine=args.engine,
            config_hash=trace_key, backend=args.backend,
            area=result.area, power=result.power,
        ),
        mirror=trace_path,
    )
    dump_vcd(sink, str(vcd_path))
    analysis = analyze(sim, sink)
    analysis_text = (
        format_stall_breakdown(sim, kernel=spec.name)
        + "\n\n"
        + format_bottlenecks(analysis)
    )
    analysis_path.write_text(analysis_text + "\n")

    print(f"{spec.name} on {args.backend}: {sim.cycles} cycles "
          f"({sim.invocations} invocations)")
    print(f"  chrome trace : {trace_path}  (open in chrome://tracing)")
    print(f"  vcd waveform : {vcd_path}")
    print(f"  analysis     : {analysis_path}")
    print(f"  artifact     : {trace_key[:12]}… in {args.store}")
    print()
    print(analysis_text)
    return 0


def serve_main(argv: list[str]) -> int:
    """``python -m repro.harness serve`` — the long-lived service."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description="Run the CGPA toolchain as an HTTP service: submit "
        "compile/simulate/dse/faults/rtl jobs (kernel + config in, job id "
        "out), poll status, fetch results.  Results are content-addressed "
        "in the artifact store, identical in-flight requests are coalesced "
        "onto one job, and each client is token-bucket rate limited.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8337,
        help="bind port; 0 picks an ephemeral port (default: 8337)",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=2,
        help="job worker threads draining the queue (default: 2)",
    )
    parser.add_argument(
        "--processes", type=_positive_int, default=1,
        help="fleet pool processes executing jobs (default: 1 = run jobs "
        "on the worker threads); >1 sidesteps the GIL for simulation-"
        "bound workloads",
    )
    _add_store_argument(parser)
    parser.add_argument(
        "--lru-entries", type=int, default=512,
        help="artifacts kept warm in memory above the disk store "
        "(default: 512; 0 disables the warm layer)",
    )
    parser.add_argument(
        "--rate", type=float, default=32.0, metavar="PER_S",
        help="sustained per-client request rate (default: 32/s)",
    )
    parser.add_argument(
        "--burst", type=float, default=64.0, metavar="TOKENS",
        help="per-client burst budget (token-bucket capacity, default: 64)",
    )
    parser.add_argument(
        "--job-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per job; an overrunning job ends in "
        "status=timeout instead of wedging a worker (default: none)",
    )
    parser.add_argument(
        "--job-retries", type=int, default=1, metavar="N",
        help="retries for a job whose pool worker crashed, on a "
        "respawned pool (default: 1)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="how long shutdown waits for in-flight jobs while answering "
        "new submissions with 503 + Retry-After (default: 5)",
    )
    args = parser.parse_args(argv)

    from ..service.app import ServiceConfig, run_server

    run_server(ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        processes=args.processes,
        store_root=str(args.store),
        lru_entries=args.lru_entries,
        rate_capacity=args.burst,
        rate_refill_per_s=args.rate,
        job_deadline_s=args.job_deadline,
        job_retries=args.job_retries,
        drain_timeout=args.drain_timeout,
    ))
    return 0


def _journal_kernel_run(args, spec, run) -> None:
    """Persist one ``sim`` envelope per hardware backend of a kernel run."""
    from ..cost import COST_MODEL_VERSION
    from ..obs.emit import sim_envelope
    from ..service.store import content_key

    writer = _envelope_writer(args.store)
    for backend, result in run.results.items():
        if result.sim is None:  # cost-model-only backends (mips/legup)
            continue
        config_hash = content_key({
            "kind": "sim",
            "cost_model": COST_MODEL_VERSION,
            "kernel": spec.name,
            "source": spec.source,
            "backend": backend,
            "n_workers": args.workers,
            "engine": args.engine,
            "max_cycles": args.max_cycles,
        })
        writer.write(sim_envelope(
            result.sim, kernel=spec.name, engine=args.engine,
            config_hash=config_hash, backend=backend,
            area=result.area, power=result.power,
        ))
    print(f"run envelopes -> {args.store}/envelopes.jsonl", file=sys.stderr)


def obs_main(argv: list[str]) -> int:
    """``python -m repro.harness obs`` — query the run-record spine."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness obs",
        description="Query, diff and render the run envelopes every "
        "subcommand journals into its artifact store "
        "(<store>/envelopes.jsonl).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from ..obs.envelope import ENVELOPE_KINDS
    from ..obs.query import GROUP_KEYS, METRICS

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
    from ..obs.query import load_envelopes, render_legacy_report

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
    from ..obs.query import diff_envelope_sets, load_envelopes

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
    from ..obs.dashboard import render_dashboard
    from ..obs.query import load_envelopes

    envelopes = load_envelopes(args.journal, strict=args.strict)
    page = render_dashboard(envelopes, title=args.title)
    if args.out.parent != pathlib.Path(""):
        args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(page)
    print(f"dashboard: {args.out} ({len(envelopes)} runs, "
          f"{len(envelopes.errors)} invalid)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and fold model failures into exit 1.

    Every subcommand shares this one :class:`~repro.errors.CgpaError`
    boundary (which covers :class:`~repro.errors.SimulationError` and the
    typed deadlock/budget exceptions under it): the user sees a one-line
    ``error:`` diagnosis on stderr instead of a traceback, and scripts
    get a clean non-zero exit status.
    """
    if argv is None:
        argv = sys.argv[1:]
    from ..errors import CgpaError

    try:
        return _dispatch(argv)
    except CgpaError as exc:
        print(f"error: {str(exc).splitlines()[0]}", file=sys.stderr)
        return 1


def _dispatch(argv: list[str]) -> int:
    """Route to a subcommand or run the default experiment set."""
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "dse":
        return dse_main(argv[1:])
    if argv and argv[0] == "faults":
        return faults_main(argv[1:])
    if argv and argv[0] == "rtl":
        return rtl_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "obs":
        return obs_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the CGPA paper's tables and figures.",
    )
    parser.add_argument(
        "--kernel", choices=sorted(KERNELS_BY_NAME), default=None,
        help="run a single kernel on all backends and print its metrics",
    )
    parser.add_argument(
        "--scalability", action="store_true",
        help="run the Appendix B.1 worker sweep (em3d)",
    )
    _add_workers(parser, 4, "parallel-stage worker count (paper default: 4)")
    _add_engine(parser, _ENGINE_HELP)
    _add_max_cycles(
        parser,
        help="simulated-cycle budget per backend run; a run exceeding it "
        "fails with a one-line CycleBudgetExceeded diagnosis (default: 500M)",
    )
    _add_store_argument(parser)
    args = parser.parse_args(argv)

    if args.kernel:
        spec = KERNELS_BY_NAME[args.kernel]
        backends = ["mips", "legup", "cgpa-p1"]
        if spec.supports_p2:
            backends.append("cgpa-p2")
        run = run_kernel(spec, tuple(backends), n_workers=args.workers,
                         engine=args.engine, max_cycles=args.max_cycles)
        mips = run.results["mips"].cycles
        print(f"{spec.name} ({spec.domain}): {spec.description}")
        for backend, result in run.results.items():
            extra = f" partition={result.signature}" if result.signature else ""
            print(f"  {backend:8s}: {result.cycles:8d} cycles "
                  f"({mips / result.cycles:5.2f}x vs MIPS){extra}")
        _journal_kernel_run(args, spec, run)
        cgpa = run.results.get("cgpa-p1")
        if cgpa is not None and cgpa.sim is not None:
            print()
            print(format_stall_breakdown(cgpa.sim, kernel=spec.name))
        return 0

    if args.scalability:
        points = scalability(
            KERNELS_BY_NAME["em3d"], (1, 2, 4, 8),
            engine=args.engine, max_cycles=args.max_cycles,
        )
        print(format_scalability(points))
        return 0

    print("Simulating all five kernels on all backends "
          "(this takes ~30 seconds)...\n")
    runs = run_all_kernels(
        n_workers=args.workers, engine=args.engine, max_cycles=args.max_cycles
    )
    print(format_table2(table2(runs)))
    print()
    print(format_figure4(figure4(runs)))
    print()
    print(format_table3(table3(runs)))
    print()
    print(format_tradeoff(tradeoff(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
