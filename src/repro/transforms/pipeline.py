"""The standard optimization pipeline run before CGPA's analyses.

Mirrors the paper's "a set of common optimization passes such as dead code
elimination, strength reduction, and scalar optimizations are applied
before generating the actual pipeline" (Section 3.3).
"""

from __future__ import annotations

from ..analysis.addr import promotable_allocas
from ..analysis.cfg import remove_unreachable_blocks
from ..ir.function import Function
from ..ir.module import Module
from ..ir.verifier import verify_function
from .constfold import fold_constants
from .dce import eliminate_dead_code
from .mem2reg import promote_allocas
from .simplify_cfg import simplify_cfg


#: Rounds ``optimize_function`` runs before it stops short of a fixed
#: point.  A round promotes every slot that is promotable *now*, so each
#: level of address-taken locals (``int** pp = &p`` promotes ``pp``, then
#: ``p``) costs one round: the nine kernels and the address-taken probes
#: of ``tests/test_transforms_fixpoint.py`` settle within two.  Service
#: sources are untrusted, so the bound keeps a deep pointer-to-pointer
#: chain from buying a dominator tree per level; a slot it leaves in
#: memory is refused, typed, by the PDG instead of being pipelined.
MAX_ROUNDS = 8


def optimize_function(function: Function) -> None:
    """mem2reg + folding + DCE + CFG cleanup, to a fixed point."""
    remove_unreachable_blocks(function)
    simplify_cfg(function)
    for _ in range(MAX_ROUNDS):
        promote_allocas(function)
        changed = fold_constants(function)
        changed += eliminate_dead_code(function)
        changed += simplify_cfg(function)
        # A promotion can expose another slot (``pi = &i`` hides ``i``)
        # without giving the scalar passes anything to do.
        if not changed and not promotable_allocas(function):
            break
    verify_function(function)


def optimize_module(module: Module) -> None:
    """Run the standard optimization pipeline on every defined function.

    One call is final: a second call changes nothing."""
    for function in module.functions.values():
        if not function.is_declaration:
            optimize_function(function)
