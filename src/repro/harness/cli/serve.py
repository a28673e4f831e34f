"""``python -m repro.harness serve`` — the long-lived HTTP service."""

from __future__ import annotations

import argparse

from ...service.app import ServiceConfig, run_server
from .options import _add_processes, _add_store_argument, _positive_int


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
    _add_processes(
        parser,
        "fleet pool processes executing jobs (default: 1 = run jobs "
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
