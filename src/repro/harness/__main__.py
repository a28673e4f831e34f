"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness                # everything (Table 2/3, Fig 4, tradeoff)
    python -m repro.harness --kernel em3d  # one kernel, all backends
    python -m repro.harness --scalability  # the Appendix B.1 worker sweep
    python -m repro.harness trace ks       # traced run: Chrome trace + VCD
                                           # + bottleneck analysis on disk
    python -m repro.harness dse ks         # design-space sweep + Pareto
                                           # frontier
    python -m repro.harness faults ks      # resilience sweep: seeded fault
                                           # plans + watchdog diagnosis
    python -m repro.harness rtl ks         # co-simulate the emitted
                                           # Verilog against the oracle
    python -m repro.harness serve          # long-lived compile/simulate/
                                           # explore HTTP service
    python -m repro.harness obs query      # query the run-record spine
    python -m repro.harness obs diff A B   # regression diff two journals
    python -m repro.harness obs report     # render the HTML dashboard

The subcommands live in :mod:`repro.harness.cli`, one module each; this
module dispatches to them and runs the default tables and figures.
``trace``/``dse``/``faults``/``rtl`` persist their result JSON in the
content-addressed artifact store (default ``./.cgpa-store``, the same
store the service uses) — ``dse``/``faults``/``rtl`` under the key of
the equivalent service :class:`~repro.service.contracts.JobRequest`.
Every run-producing path additionally journals a versioned
:class:`~repro.obs.RunEnvelope` into ``<store>/envelopes.jsonl``; the
``obs`` subcommand queries, diffs and renders that journal
(``obs query --kind dse-sweep --json|--report`` is how a sweep's JSON or
Pareto text comes back out).

Every subcommand turns a simulator or compiler failure
(:class:`~repro.errors.CgpaError`) into a one-line ``error:`` diagnosis
on stderr and exit status 1 — no tracebacks for model-level failures.
"""

from __future__ import annotations

import argparse
import sys

from ..hw import DEFAULT_ENGINE
from ..kernels import KERNELS_BY_NAME
from .cli.options import (
    _add_max_cycles,
    _add_store_argument,
    _add_workers,
)
from .experiments import figure4, run_all_kernels, scalability, table2, table3, tradeoff
from .report import (
    format_figure4,
    format_scalability,
    format_stall_breakdown,
    format_table2,
    format_table3,
    format_tradeoff,
)
from .runner import run_kernel


def _journal_kernel_run(args, spec, run) -> None:
    """Persist one ``sim`` envelope per hardware backend of a kernel run."""
    from ..obs.emit import EnvelopeWriter, run_key, sim_envelope

    writer = EnvelopeWriter(args.store)
    for backend, result in run.results.items():
        if result.sim is None:  # cost-model-only backends (mips/legup)
            continue
        config_hash = run_key(
            "sim", spec, backend=backend, n_workers=args.workers,
            engine=DEFAULT_ENGINE, max_cycles=args.max_cycles,
        )
        writer.write(sim_envelope(
            result.sim, kernel=spec.name, engine=DEFAULT_ENGINE,
            config_hash=config_hash, backend=backend,
            area=result.area, power=result.power,
        ))
    print(f"run envelopes -> {args.store}/envelopes.jsonl", file=sys.stderr)


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
    # Subcommand modules are imported on use: the default run never
    # pays for the service, and `serve` never for the telemetry exporters.
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command in ("dse", "faults", "rtl"):
        from .cli.jobs import job_main

        return job_main(command, rest)
    if command == "trace":
        from .cli.trace import trace_main

        return trace_main(rest)
    if command == "serve":
        from .cli.serve import serve_main

        return serve_main(rest)
    if command == "obs":
        from .cli.obs import obs_main

        return obs_main(rest)

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
                         max_cycles=args.max_cycles)
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
            KERNELS_BY_NAME["em3d"], (1, 2, 4, 8), max_cycles=args.max_cycles
        )
        print(format_scalability(points))
        return 0

    print("Simulating all five kernels on all backends "
          "(this takes ~30 seconds)...\n")
    runs = run_all_kernels(n_workers=args.workers, max_cycles=args.max_cycles)
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
