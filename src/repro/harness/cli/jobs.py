"""``python -m repro.harness dse|faults|rtl`` — clients of the job contract.

A subcommand is argv → :class:`~repro.service.contracts.JobRequest` →
the executor the service runs for that kind
(:func:`repro.service.jobs.run_job`) → the report text → one
:meth:`~repro.obs.emit.EnvelopeWriter.publish_run`: the artifact under
``request.key`` and the :func:`~repro.obs.emit.job_envelope` the service
would journal for the same job.
Options are declared, defaulted and validated by
:data:`~repro.service.contracts.OPTION_SCHEMAS`; the flags below only
name them (:func:`_flag`) and add *how* to run: ``--processes``,
``--no-cache``, ``--emit-dir``, ``--store``.  A CLI run and
a service job of the same request therefore share one key, one artifact,
one run record and one per-point result cache.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, NamedTuple

from ...kernels import KERNELS_BY_NAME
from ...obs.emit import EnvelopeWriter, job_envelope
from ...service.contracts import OPTION_SCHEMAS, ContractError, JobRequest
from ...service.jobs import artifact_of, dse_space, run_job
from ..report import format_pareto
from .options import (
    _add_processes,
    _add_store_argument,
    _csv_positive_ints,
    _positive_int,
)


def _pool_how(parser, args, spec, writer) -> dict:
    """How a dse/faults sweep runs: pool size and the journal."""
    return {"processes": args.processes, "envelopes": writer}


def _flag(parser, kind: str, flag: str, option: str, help: str, **kwargs) -> None:
    """``flag`` sets job option ``option``: it parses into the namespace
    under the option's name, defaults to the schema's default, and
    ``{default}`` in ``help`` shows it."""
    default = OPTION_SCHEMAS[kind][option].default
    shown = ",".join(map(str, default)) if isinstance(default, list) else default
    parser.add_argument(
        flag, dest=option, default=default,
        help=help.format(default=shown), **kwargs,
    )


# --------------------------------------------------------------------------
# dse
# --------------------------------------------------------------------------

_CACHE_ORGS = {"shared": [False], "private": [True], "both": [False, True]}


def _cache_orgs(text: str) -> list[bool]:
    """argparse type of ``--caches``: the ``private_caches`` axis."""
    try:
        return _CACHE_ORGS[text]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(_CACHE_ORGS)})"
        )


def _dse_flags(parser) -> None:
    _flag(parser, "dse", "--strategy", "strategy",
          "exhaustive grid, seeded random sample, or greedy hill-climb "
          "(default: {default})", choices=["grid", "random", "hillclimb"])
    parser.add_argument(
        "--policies", default=None,
        type=lambda text: [p for p in text.split(",") if p],
        help="comma-separated replication policies to sweep "
        "(default: p1,none plus p2 where Table 2 lists one)",
    )
    _flag(parser, "dse", "--workers-list", "n_workers",
          "parallel-stage worker counts to sweep (default: {default})",
          type=_csv_positive_ints, metavar="N,N,...")
    _flag(parser, "dse", "--fifo-depths", "fifo_depths",
          "FIFO depths to sweep (default: {default})",
          type=_csv_positive_ints, metavar="N,N,...")
    _flag(parser, "dse", "--cache-lines", "cache_lines",
          "cache line counts to sweep; powers of two (default: {default})",
          type=_csv_positive_ints, metavar="N,N,...")
    _flag(parser, "dse", "--cache-ports", "cache_ports",
          "cache port counts to sweep (default: {default})",
          type=_csv_positive_ints, metavar="N,N,...")
    _flag(parser, "dse", "--caches", "private_caches",
          "cache organisations to sweep (default: shared)",
          type=_cache_orgs, metavar="{shared,private,both}")
    _flag(parser, "dse", "--samples", "samples",
          "points to draw with --strategy random (default: {default})",
          type=_positive_int)
    _flag(parser, "dse", "--seed", "seed",
          "random-sample seed (default: {default})", type=int)
    _flag(parser, "dse", "--max-evals", "max_evals",
          "evaluation budget for --strategy hillclimb (default: {default})",
          type=_positive_int)
    _flag(parser, "dse", "--objective", "objective",
          "hill-climb objective to minimise (default: {default})",
          choices=["cycles", "total_aluts", "energy_uj"])
    _add_processes(
        parser,
        "pool size for parallel evaluation (default: 1); the frontier "
        "is byte-identical at any pool size",
    )
    _flag(parser, "dse", "--max-cycles", "max_cycles",
          "per-point simulated-cycle budget; points exceeding it are "
          "recorded as status=timeout (default: {default:,})",
          type=_positive_int)
    parser.add_argument(
        "--no-cache", action="store_true",
        help="evaluate every point fresh, and do not store per-point "
        "results in --store",
    )


def _dse_prepare(parser, args, spec, writer) -> dict:
    if args.policies is None:  # the one default that is the CLI's own
        args.policies = ["p1", "none"] + (["p2"] if spec.supports_p2 else [])
    # The store doubles as the per-point result cache, as in the service.
    return {"store": None if args.no_cache else writer.store,
            **_pool_how(parser, args, spec, writer)}


def _dse_banner(request, args) -> str:
    return (f"Exploring {dse_space(request).size}-point space for "
            f"{request.kernel} ({request.options['strategy']} strategy, "
            f"{args.processes} process(es))...")


def _dse_scoring(sweep) -> dict:
    """How the points were scored is provenance of this run, like its
    wall-clock: in the envelope's ``extra``, never in the payload."""
    return {"derived": sweep.derived}


def _dse_render(sweep, args, artifact: str) -> None:
    print()
    print(format_pareto(sweep))
    print()
    print(f"sweep took {sweep.elapsed_s:.1f}s; {artifact}")


# --------------------------------------------------------------------------
# faults
# --------------------------------------------------------------------------


def _faults_flags(parser) -> None:
    _flag(parser, "faults", "--plans", "plans",
          "fault plans per class (timing/hang/corruption; default: {default})",
          type=_positive_int)
    _flag(parser, "faults", "--seed", "seed",
          "master seed deriving every plan's schedule (default: {default})",
          type=int)
    _flag(parser, "faults", "--workers", "n_workers",
          "parallel-stage worker count (paper default: {default})",
          type=_positive_int, metavar="WORKERS")
    _flag(parser, "faults", "--fifo-depth", "fifo_depth",
          "FIFO entries per channel (paper default: {default})",
          type=_positive_int)
    _flag(parser, "faults", "--max-cycles", "max_cycles",
          "per-plan simulated-cycle budget (default: 64x the fault-free "
          "baseline); exceeding it records the plan as outcome=timeout",
          type=_positive_int)
    _add_processes(
        parser,
        "pool size for parallel plan execution (default: 1); the "
        "report is byte-identical at any pool size",
    )


def _faults_render(report, args, artifact: str) -> None:
    print(report.format())
    # stderr: stdout must stay byte-identical across a resume from the
    # store's plan checkpoints (the CI smokes diff it).
    if report.replayed:
        print(f"resumed: {report.replayed}/{len(report.records)} plan(s) "
              f"replayed from checkpoints", file=sys.stderr)
    print(artifact, file=sys.stderr)


# --------------------------------------------------------------------------
# rtl
# --------------------------------------------------------------------------


def _rtl_flags(parser) -> None:
    _flag(parser, "rtl", "--policy", "policy",
          "replication policy to compile with (default: {default})",
          choices=["p1", "p2", "none"])
    _flag(parser, "rtl", "--workers", "n_workers",
          "parallel-stage worker count (default: {default}; every worker "
          "module is simulated gate-for-gate, so co-simulation favours "
          "small fleets)", type=_positive_int, metavar="WORKERS")
    _flag(parser, "rtl", "--fifo-depth", "fifo_depth",
          "FIFO entries per channel (default: {default})", type=_positive_int)
    _flag(parser, "rtl", "--setup-args", "setup_args",
          "workload-size arguments for the kernel's setup function "
          "(default: a scaled-down smoke workload)",
          type=_csv_positive_ints, metavar="N,N,...")
    parser.add_argument(
        "--full", action="store_true",
        help="use the paper-scale workload instead of the smoke scale "
        "(all nine kernels take ~6 s at p1)",
    )
    _flag(parser, "rtl", "--max-cycles", "max_cycles",
          "per-round simulated-cycle budget (default: {default:,})",
          type=_positive_int)
    parser.add_argument(
        "--emit-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="also write each round's Verilog modules plus oracle-"
        "scripted testbenches into DIR",
    )


def _rtl_prepare(parser, args, spec, writer) -> dict:
    if args.setup_args is None and args.full:
        args.setup_args = list(spec.setup_args)
    return {"emit_dir": args.emit_dir}


def _rtl_render(report, args, artifact: str) -> None:
    print(report.format())
    print(artifact, file=sys.stderr)


# --------------------------------------------------------------------------
# The one job path
# --------------------------------------------------------------------------


class _JobCli(NamedTuple):
    """What one job kind adds to :func:`job_main`."""

    description: str
    kernel_help: str
    flags: Callable  # (parser): the kind's option and how-to-run flags
    #: (parser, args, spec, writer) -> run_job keywords; also folds the
    #: CLI-only conveniences (--full, the --policies default) into args.
    prepare: Callable
    render: Callable  # (report, args, artifact line): the run's output
    exit_code: Callable = lambda report: 0
    extra: Callable = lambda report: None  # this run's envelope ``extra``
    banner: Callable | None = None  # (request, args) -> line before the run


_JOB_CLIS = {
    "dse": _JobCli(
        "Explore the accelerator knob space for one kernel, print the "
        "Pareto frontier over (cycles, total_aluts, energy_uj) and store "
        "the full sweep under its content key in --store.  Evaluated "
        "points are cached there too, so repeated sweeps (and service "
        "jobs on the same store) only simulate new points.",
        "kernel whose design space to explore",
        _dse_flags, _dse_prepare, _dse_render, extra=_dse_scoring,
        banner=_dse_banner,
    ),
    "faults": _JobCli(
        "Inject seeded fault plans (memory latency, cache-port "
        "storms, FIFO back-pressure, worker hangs, value corruption) into "
        "one kernel's pipeline.  Timing faults must leave liveouts "
        "bit-identical to the interpreter oracle; hangs must be diagnosed "
        "by the deadlock watchdog; corruption detection is reported.  "
        "Deterministic for a given (kernel, seed); each plan's outcome is "
        "checkpointed in --store, and a rerun there (after a crash, say) "
        "replays the checkpointed plans instead of re-simulating them.",
        "kernel to stress",
        _faults_flags, _pool_how, _faults_render,
    ),
    "rtl": _JobCli(
        "Execute one kernel's emitted Verilog worker modules "
        "in the bundled two-state simulator (repro.vsim) and diff finish-"
        "time live-outs, FIFO traffic and the final memory image, bit for "
        "bit, against the interpreter oracle.  Exit status 1 on any "
        "mismatch.",
        "kernel to co-simulate",
        _rtl_flags, _rtl_prepare, _rtl_render,
        exit_code=lambda report: 0 if report.ok else 1,
    ),
}


def job_parser(kind: str) -> argparse.ArgumentParser:
    """The argument parser of job subcommand ``kind``."""
    cli = _JOB_CLIS[kind]
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.harness {kind}", description=cli.description
    )
    parser.add_argument(
        "kernel", choices=sorted(KERNELS_BY_NAME), help=cli.kernel_help
    )
    cli.flags(parser)
    _add_store_argument(parser)
    return parser


def job_main(kind: str, argv: list[str]) -> int:
    """``python -m repro.harness <kind> <kernel>`` for a job kind."""
    cli = _JOB_CLIS[kind]
    parser = job_parser(kind)
    args = parser.parse_args(argv)

    writer = EnvelopeWriter(args.store)
    how = cli.prepare(parser, args, KERNELS_BY_NAME[args.kernel], writer)
    try:
        request = JobRequest.make(kind, args.kernel, {
            option: getattr(args, option) for option in OPTION_SCHEMAS[kind]
        })
    except ContractError as exc:
        parser.error(str(exc))
    if cli.banner is not None:
        print(cli.banner(request, args))
    report = run_job(request, **how)
    artifact = artifact_of(kind, report)
    stored = writer.publish_run(
        request.key, artifact, job_envelope(request, artifact, cli.extra(report))
    )
    cli.render(report, args, f"artifact {request.key[:12]}… -> {stored}")
    return cli.exit_code(report)
