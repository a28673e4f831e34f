"""One declaration per flag that several subcommands share; each
subcommand supplies only its own help text (and default)."""

from __future__ import annotations

import argparse
import pathlib


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


def _add_max_cycles(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--max-cycles", type=_positive_int, default=None, help=help)


def _add_workers(parser: argparse.ArgumentParser, default: int, help: str) -> None:
    parser.add_argument("--workers", type=_positive_int, default=default, help=help)


def _add_processes(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--processes", type=_positive_int, default=1, help=help)


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    """``--store``: where result artifacts are content-addressed."""
    parser.add_argument(
        "--store", type=pathlib.Path, default=pathlib.Path(".cgpa-store"),
        metavar="DIR",
        help="content-addressed artifact store directory, shared with "
        "`repro.harness serve` and the DSE result cache "
        "(default: ./.cgpa-store)",
    )
