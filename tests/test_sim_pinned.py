"""Simulator bytes, pinned: reports and sweep results.

``PINNED`` holds sha256[:16] digests of what the default engine produces:

* ``<kernel>/<policy>`` — ``SimReport.to_dict()`` and the post-run
  ``Memory.image_key()`` of each of the nine kernels at paper scale under
  ``cgpa-p1`` and ``cgpa-none`` (``run_backend``'s configuration);
* ``sweep/<kernel>/<point>`` — ``EvalResult.to_dict()`` of every point of
  the ``dse-sweep`` benchmark grid (ks, bfs, hash-join; 16 points each),
  scored the way a sweep scores them (``Evaluator.evaluate_structure``
  per compile key: one full run per timing, the rest derived).

A change to the simulator's host code must leave every digest unchanged.
They are never regenerated from the checkout under test: a new value
comes only from a known-good checkout of the parent, run from the repo
root so that ``tests`` is this checkout's and ``repro`` the parent's::

    PYTHONPATH=<parent checkout>/src python -c \\
        "import tests.test_sim_pinned as t; print(t.compute_digests())"
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dse import ConfigSpace, Evaluator
from repro.harness.build import compile_kernel
from repro.harness.runner import Workload, interned_check, interned_workload, run_hardware
from repro.hw import DirectMappedCache
from repro.kernels import ALL_KERNELS, KERNELS_BY_NAME
from repro.pipeline import ReplicationPolicy

PINNED = {
    "K-means/p1": "a290bdb0de186a72",
    "K-means/none": "29ba6fd3dcdaf4a4",
    "Hash-indexing/p1": "6435f663020028ff",
    "Hash-indexing/none": "6435f663020028ff",
    "ks/p1": "66e4d08c41cf5dd6",
    "ks/none": "66e4d08c41cf5dd6",
    "em3d/p1": "348be70da169c31b",
    "em3d/none": "348be70da169c31b",
    "1D-Gaussblur/p1": "9dd310b249615859",
    "1D-Gaussblur/none": "3a6a8535b1aefecb",
    "bfs/p1": "35e9a8ede3deaaf1",
    "bfs/none": "35e9a8ede3deaaf1",
    "hash-join/p1": "f435434cc6baa321",
    "hash-join/none": "f435434cc6baa321",
    "spmv/p1": "b05cad362d0f12d1",
    "spmv/none": "2153fb456a16b851",
    "top-k/p1": "88fe3386c42b8045",
    "top-k/none": "88fe3386c42b8045",
    "sweep/ks/p1/w2/d4/shared/c128x8": "637d152f052e2194",
    "sweep/ks/p1/w2/d4/shared/c512x8": "07c3ebf9bfcb3587",
    "sweep/ks/p1/w2/d16/shared/c128x8": "745f8f746caa7a4e",
    "sweep/ks/p1/w2/d16/shared/c512x8": "fb0cd0632377367f",
    "sweep/ks/p1/w4/d4/shared/c128x8": "7a8e4640773c4b1f",
    "sweep/ks/p1/w4/d4/shared/c512x8": "28fef3864a3aec56",
    "sweep/ks/p1/w4/d16/shared/c128x8": "abfbe8e755c17aa7",
    "sweep/ks/p1/w4/d16/shared/c512x8": "c6f84c81327e064e",
    "sweep/ks/none/w2/d4/shared/c128x8": "6e7eeb9abc4dbb64",
    "sweep/ks/none/w2/d4/shared/c512x8": "63bf1cb2ea333964",
    "sweep/ks/none/w2/d16/shared/c128x8": "0fce2323702d07ae",
    "sweep/ks/none/w2/d16/shared/c512x8": "fdde096974ece179",
    "sweep/ks/none/w4/d4/shared/c128x8": "386dbedf4bdbac09",
    "sweep/ks/none/w4/d4/shared/c512x8": "b7bebb485f3f77e1",
    "sweep/ks/none/w4/d16/shared/c128x8": "05cba620bd4946f1",
    "sweep/ks/none/w4/d16/shared/c512x8": "48627b2c3d164703",
    "sweep/bfs/p1/w2/d4/shared/c128x8": "9b4256b66cdc6e3f",
    "sweep/bfs/p1/w2/d4/shared/c512x8": "e96ae8dc524177b3",
    "sweep/bfs/p1/w2/d16/shared/c128x8": "6544c27968bdc2ea",
    "sweep/bfs/p1/w2/d16/shared/c512x8": "f6c96a8f6dcf2603",
    "sweep/bfs/p1/w4/d4/shared/c128x8": "fb63b550b621ff2d",
    "sweep/bfs/p1/w4/d4/shared/c512x8": "d14b72cc8ad07054",
    "sweep/bfs/p1/w4/d16/shared/c128x8": "d1988c7d3c8fe146",
    "sweep/bfs/p1/w4/d16/shared/c512x8": "ed9ca83226650b1a",
    "sweep/bfs/none/w2/d4/shared/c128x8": "948e7a442f13505a",
    "sweep/bfs/none/w2/d4/shared/c512x8": "4bc1853111e75dbe",
    "sweep/bfs/none/w2/d16/shared/c128x8": "a0cc9435d80f30d7",
    "sweep/bfs/none/w2/d16/shared/c512x8": "af5e715d26b59b96",
    "sweep/bfs/none/w4/d4/shared/c128x8": "e1450cbfc4717e6c",
    "sweep/bfs/none/w4/d4/shared/c512x8": "82dbf03aff2c921c",
    "sweep/bfs/none/w4/d16/shared/c128x8": "20d959708300f905",
    "sweep/bfs/none/w4/d16/shared/c512x8": "26cec61faa5295a6",
    "sweep/hash-join/p1/w2/d4/shared/c128x8": "27233b1d1f82d342",
    "sweep/hash-join/p1/w2/d4/shared/c512x8": "23195e62e7b55fd2",
    "sweep/hash-join/p1/w2/d16/shared/c128x8": "801c8974866e129c",
    "sweep/hash-join/p1/w2/d16/shared/c512x8": "9ae021c97f653b25",
    "sweep/hash-join/p1/w4/d4/shared/c128x8": "cd20aac0efe48d33",
    "sweep/hash-join/p1/w4/d4/shared/c512x8": "916f8a60681868fa",
    "sweep/hash-join/p1/w4/d16/shared/c128x8": "2fd686fb3691310e",
    "sweep/hash-join/p1/w4/d16/shared/c512x8": "e53c762ce2538915",
    "sweep/hash-join/none/w2/d4/shared/c128x8": "f2d27287c8d733a4",
    "sweep/hash-join/none/w2/d4/shared/c512x8": "5b687d8d00257af9",
    "sweep/hash-join/none/w2/d16/shared/c128x8": "63acb6b2497ef4f8",
    "sweep/hash-join/none/w2/d16/shared/c512x8": "2a0387184e02fdca",
    "sweep/hash-join/none/w4/d4/shared/c128x8": "2f134089ad57c714",
    "sweep/hash-join/none/w4/d4/shared/c512x8": "483cb1cc00f670d4",
    "sweep/hash-join/none/w4/d16/shared/c128x8": "b72688c9c6a6f8d6",
    "sweep/hash-join/none/w4/d16/shared/c512x8": "51f7538c6ee0d512",
}

#: The ``dse-sweep`` benchmark workload's kernels and grid.
SWEEP_KERNELS = ("ks", "bfs", "hash-join")
SWEEP_SPACE = dict(
    policies=["p1", "none"], n_workers=[2, 4],
    fifo_depths=[4, 16], cache_lines=[128, 512],
)


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _json(data) -> str:
    return json.dumps(data, sort_keys=True)


def report_digest(spec, policy: str) -> str:
    """``cgpa-<policy>`` as ``run_backend`` runs it, with its image."""
    images = []

    def setup(module, spec):
        memory, globals_, args = interned_workload(module, spec)
        images.append(memory)
        return memory, globals_, args

    run = run_hardware(
        spec, f"cgpa-{policy}", compile_kernel(spec, ReplicationPolicy(policy)),
        DirectMappedCache(ports=8), workload=Workload(setup, interned_check),
    )
    brk, sha = images[0].image_key()
    return _digest(_json(run.sim.to_dict()), str(brk), sha.hex())


def sweep_digests(name: str) -> dict:
    """The grid's results for one kernel."""
    evaluator = Evaluator(KERNELS_BY_NAME[name])
    groups: dict = {}
    for point in ConfigSpace(**SWEEP_SPACE).grid():
        groups.setdefault(point.compile_key, []).append(point)
    digests = {}
    for points in groups.values():
        results, _ = evaluator.evaluate_structure(points)
        for result in results:
            digests[f"sweep/{name}/{result.point.label}"] = _digest(
                _json(result.to_dict()))
    return digests


def compute_digests() -> dict:
    digests = {
        f"{spec.name}/{policy}": report_digest(spec, policy)
        for spec in ALL_KERNELS for policy in ("p1", "none")
    }
    for name in SWEEP_KERNELS:
        digests.update(sweep_digests(name))
    return digests


@pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda s: s.name)
@pytest.mark.parametrize("policy", ["p1", "none"])
def test_pinned_report_and_image(spec, policy):
    assert report_digest(spec, policy) == PINNED[f"{spec.name}/{policy}"]


@pytest.mark.parametrize("name", SWEEP_KERNELS)
def test_pinned_sweep_results(name):
    digests = sweep_digests(name)
    assert len(digests) == 16
    assert digests == {key: PINNED[key] for key in digests}
