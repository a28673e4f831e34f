"""``python -m repro.harness serve`` — the long-lived HTTP service."""

from __future__ import annotations

import argparse

from ...service.app import ServiceConfig, run_server
from .options import _add_processes, _add_store_argument, _positive_int


def serve_main(argv: list[str]) -> int:
    """``python -m repro.harness serve`` — the long-lived service.

    Each flag is a :class:`ServiceConfig` field: it parses into the
    namespace under the field's name, and its default (and the number in
    its help line) is the field's.
    """
    config = ServiceConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description="Run the CGPA toolchain as an HTTP service: submit "
        "compile/simulate/dse/faults/rtl jobs (kernel + config in, job id "
        "out), poll status, fetch results.  Results are content-addressed "
        "in the artifact store, identical in-flight requests are coalesced "
        "onto one job, and each client is token-bucket rate limited.",
    )
    parser.add_argument(
        "--host", default=config.host,
        help=f"bind address (default: {config.host})",
    )
    parser.add_argument(
        "--port", type=int, default=config.port,
        help=f"bind port; 0 picks an ephemeral port (default: {config.port})",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=config.workers,
        help=f"job worker threads draining the queue (default: {config.workers})",
    )
    _add_processes(
        parser,
        "fleet pool processes executing jobs (default: 1 = run jobs "
        "on the worker threads); >1 sidesteps the GIL for simulation-"
        "bound workloads",
    )
    _add_store_argument(parser)
    parser.add_argument(
        "--lru-entries", type=int, default=config.lru_entries,
        help="artifacts kept warm in memory above the disk store "
        f"(default: {config.lru_entries}; 0 disables the warm layer)",
    )
    parser.add_argument(
        "--rate", type=float, metavar="PER_S",
        dest="rate_refill_per_s", default=config.rate_refill_per_s,
        help="sustained per-client request rate "
        f"(default: {config.rate_refill_per_s:g}/s)",
    )
    parser.add_argument(
        "--burst", type=float, metavar="TOKENS",
        dest="rate_capacity", default=config.rate_capacity,
        help="per-client burst budget (token-bucket capacity, "
        f"default: {config.rate_capacity:g})",
    )
    parser.add_argument(
        "--job-deadline", type=float, metavar="SECONDS",
        dest="job_deadline_s", default=config.job_deadline_s,
        help="wall-clock deadline per job; an overrunning job ends in "
        "status=timeout instead of wedging a worker (default: none)",
    )
    parser.add_argument(
        "--job-retries", type=int, default=config.job_retries, metavar="N",
        help="retries for a job whose pool worker crashed, on a "
        f"respawned pool (default: {config.job_retries})",
    )
    parser.add_argument(
        "--drain-timeout", type=float, metavar="SECONDS",
        default=config.drain_timeout,
        help="how long shutdown waits for in-flight jobs while answering "
        "new submissions with 503 + Retry-After "
        f"(default: {config.drain_timeout:g})",
    )
    fields = vars(parser.parse_args(argv))
    run_server(ServiceConfig(store_root=str(fields.pop("store")), **fields))
    return 0
