"""Co-simulation bytes, pinned: every ``CosimReport`` vsim produces.

``PINNED`` holds sha256[:16] of ``CosimReport.to_dict()`` (JSON,
``sort_keys=True``) for each of the nine kernels under ``p1``, ``none``
and ``p2`` where the kernel supports it, at the smoke scale
(:data:`~repro.vsim.cosim.SMOKE_SETUP_ARGS`) and ``run_rtl_cosim``'s
defaults.  Each instance's RTL ``cycles`` is part of those bytes, so a
change to the simulator that moves one clock edge moves a digest.
``PINNED_PAPER`` holds the same digest of each kernel at ``p1`` and the
paper-scale workload — what ``python -m repro.harness rtl <kernel>
--full`` stores, less its ``"kind"`` — checked by the CI ``vsim-smoke``
job rather than here, to keep the tier-1 suite fast.

A change to vsim's host code must leave every digest unchanged.  They
are never regenerated from the checkout under test: a new value comes
only from a known-good checkout of the parent, run from the repo root so
that ``tests`` is this checkout's and ``repro`` the parent's::

    PYTHONPATH=<parent checkout>/src python -c \\
        "import tests.test_vsim_pinned as t; print(t.compute_digests())"
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.kernels import ALL_KERNELS
from repro.vsim.cosim import run_rtl_cosim

PINNED = {
    "K-means/p1": "40e1623c46ae6c0b",
    "K-means/none": "615caf1c9ae5b224",
    "Hash-indexing/p1": "4fa9049fa2049386",
    "Hash-indexing/none": "1fd6cca9e666fb5d",
    "ks/p1": "607c20b978a5bd09",
    "ks/none": "960a9742509e66ed",
    "em3d/p1": "86b6e34a61edee3b",
    "em3d/none": "ae0578fdcd2a931e",
    "em3d/p2": "56b3ab4194f0ca95",
    "1D-Gaussblur/p1": "9dca5edcadcfb2d2",
    "1D-Gaussblur/none": "463ffbea608657f8",
    "1D-Gaussblur/p2": "b1676a6731dfed1b",
    "bfs/p1": "ae0d628eaabd2ba8",
    "bfs/none": "de399e7e1e435f6d",
    "hash-join/p1": "717beddd7af3a077",
    "hash-join/none": "93de2ad233bd382a",
    "spmv/p1": "20e903e290c499ab",
    "spmv/none": "434cc27b8a073d34",
    "spmv/p2": "a92e2b157c30992c",
    "top-k/p1": "3237982fadac5556",
    "top-k/none": "0ab8eaf21a15fcde",
    "top-k/p2": "774f9b28d1a5fffa",
}

PINNED_PAPER = {
    "K-means": "f3f5cf9acec53916",
    "Hash-indexing": "15d2482fdcd2f718",
    "ks": "78d302e06b2a12d4",
    "em3d": "8f7275b42e1156ed",
    "1D-Gaussblur": "e7351392dd7ca172",
    "bfs": "fd79e1820dc5ad7d",
    "hash-join": "7d2ad15023c28008",
    "spmv": "226cd497b707acb6",
    "top-k": "da2a1f1586563329",
}

CASES = [
    (spec.name, policy)
    for spec in ALL_KERNELS
    for policy in ["p1", "none"] + (["p2"] if spec.supports_p2 else [])
]


def report_digest(report: dict) -> str:
    """sha256[:16] of a ``CosimReport.to_dict()`` (or its stored artifact,
    whose ``"kind"`` is dropped)."""
    body = {key: value for key, value in report.items() if key != "kind"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def compute_digests() -> tuple[dict, dict]:
    smoke = {
        f"{name}/{policy}": report_digest(run_rtl_cosim(name, policy=policy).to_dict())
        for name, policy in CASES
    }
    paper = {
        spec.name: report_digest(
            run_rtl_cosim(spec, setup_args=list(spec.setup_args)).to_dict()
        )
        for spec in ALL_KERNELS
    }
    return smoke, paper


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(f"{k}/{p}" for k, p in CASES)
    assert sorted(PINNED_PAPER) == sorted(spec.name for spec in ALL_KERNELS)


@pytest.mark.parametrize("kernel,policy", CASES, ids=[f"{k}-{p}" for k, p in CASES])
def test_pinned_cosim_report(kernel, policy):
    report = run_rtl_cosim(kernel, policy=policy).to_dict()
    assert report_digest(report) == PINNED[f"{kernel}/{policy}"], (
        f"report bytes moved (verdict ok: {report['ok']})"
    )
