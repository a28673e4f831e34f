"""Shared fixtures: run every kernel on every backend once per session."""

import json
import pathlib

import pytest

from repro.harness import run_all_kernels

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--json", action="store", default=None, metavar="PATH",
        help="also write machine-readable benchmark results (fig4 speedups)"
        " to PATH for BENCH_*.json perf tracking",
    )


@pytest.fixture(scope="session")
def json_path(request):
    """Target path for machine-readable results (None when not requested)."""
    return request.config.getoption("--json")


@pytest.fixture(scope="session")
def all_runs():
    """Simulations of all five kernels on mips/legup/cgpa-p1(/p2)."""
    return run_all_kernels()


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir, name: str, text: str) -> None:
    """Print a report and archive it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


def emit_json(results_dir, json_path, figure: str, payload: dict,
              kernel: str | None = None) -> None:
    """Persist a bench payload as a ``bench`` run envelope.

    The measured numbers stay under the record's ``payload`` key; the
    envelope adds schema version, run id, timestamp and the config hash
    the obs query layer filters on.  Two copies are written:

    * ``json_path`` (when ``--json`` was passed) — the ``BENCH_*.json``
      perf-tracking form CI archives;
    * ``results_dir`` as a store root — one line per run in its
      append-only ``envelopes.jsonl`` journal, so ``python -m
      repro.harness obs query benchmarks/results`` sees bench trends
      alongside every other subsystem's runs (both are scratch output,
      not committed).
    """
    from repro.obs.emit import EnvelopeWriter, bench_envelope

    envelope = bench_envelope(figure, payload, kernel=kernel)
    EnvelopeWriter(results_dir).write(envelope)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(envelope.to_dict(), fh, indent=2, sort_keys=True)
