"""Content address of one design-point evaluation.

The key hashes everything that determines an
:class:`~repro.dse.evaluate.EvalResult`: the kernel's C source and
entry-point contract, the full design point, the evaluator's cycle budget
and engine, and :data:`repro.cost.COST_MODEL_VERSION`.  Change any of
those and the key changes — stale entries are never *invalidated*, they
are simply never addressed again.

Storage is the service-layer :class:`~repro.service.store.ArtifactStore`
(``<key[:2]>/<key>.json`` sharding, locked atomic writes, hash-checked
reads); the explorer only needs its ``get``/``put``.  These keys and the
service's job keys hash disjoint payloads, so one store root serves both.
"""

from __future__ import annotations

from ..cost import COST_MODEL_VERSION
from ..kernels import KernelSpec
from ..service.store import content_key
from .space import DesignPoint

#: Bump when the EvalResult schema or evaluation semantics change.
CACHE_SCHEMA_VERSION = 1


def result_key(
    spec: KernelSpec,
    point: DesignPoint,
    max_cycles: int,
    engine: str,
) -> str:
    """Hex digest addressing one (kernel, config, model-version) result."""
    return content_key({
        "schema": CACHE_SCHEMA_VERSION,
        "cost_model": COST_MODEL_VERSION,
        **spec.key_fields(),
        "point": point.to_dict(),
        "max_cycles": max_cycles,
        "engine": engine,
    })
