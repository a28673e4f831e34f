"""Known hostile sources, run through the job contract.

Each file under ``tests/corpus/`` is a minimised source that once ended in
an untyped exception somewhere between the service edge and a result.
Riding along in a copy of the ks source (the whole module is compiled and
optimised, so a function nothing calls still meets the frontend and every
pass), each is submitted as a ``compile`` and a ``simulate`` job through
``JobRequest.make`` → ``jobs.execute``.  It must end ``ok`` or as a typed
:class:`~repro.errors.CgpaError`: a raised one, or a simulate artifact
whose status says which stage refused it.  A new minimised failure is one
more file here.
"""

import pathlib
import time

import pytest

from repro.errors import CgpaError
from repro.kernels import KERNELS_BY_NAME
from repro.service import jobs
from repro.service.contracts import JobRequest

CORPUS = sorted(pathlib.Path(__file__).with_name("corpus").glob("*.c"))

#: Wall-clock bound per submission (a ks compile and simulation is ~1 s).
BOUND_S = 30.0


def test_the_corpus_holds_the_known_cases():
    assert {case.stem for case in CORPUS} >= {
        "pointer_compare_constants", "fptosi_of_infinity", "pointer_cast_fold",
        "deep_nesting", "char_escape_at_eof", "overlong_literal",
    }


@pytest.mark.parametrize("kind", ["compile", "simulate"])
@pytest.mark.parametrize("case", CORPUS, ids=lambda path: path.stem)
def test_ends_ok_or_typed(case, kind):
    source = KERNELS_BY_NAME["ks"].source + "\n" + case.read_text()
    request = JobRequest.make(kind, "ks", source=source)
    started = time.perf_counter()
    try:
        artifact = jobs.execute(request)
    except CgpaError as error:
        outcome = f"{type(error).__name__}: {error}"
    else:
        outcome = artifact.get("status", "ok")
        if outcome == "error":  # the evaluator names the stage that refused it
            assert artifact["error"].startswith("compile: "), artifact["error"]
        else:
            assert outcome == "ok", artifact
    assert time.perf_counter() - started < BOUND_S, outcome
    assert "internal" not in outcome
