"""Exploration strategies: which points to evaluate, in what order.

A strategy is a (possibly stateful) batch generator: the explorer calls
:meth:`Strategy.propose` with everything evaluated so far and runs the
returned batch; an empty batch ends the sweep.  Exhaustive grid and
random sampling propose a single batch; the greedy hill-climb inspects
results between batches.  All strategies are deterministic given their
constructor arguments, which is what makes sweep outputs reproducible
across pool sizes.
"""

from __future__ import annotations

from ..errors import CgpaError
from .evaluate import EvalResult
from .space import ConfigSpace, DesignPoint


class Strategy:
    """Batch-generator interface; subclasses override :meth:`propose`."""

    name = "abstract"

    def propose(
        self,
        space: ConfigSpace,
        evaluated: dict[DesignPoint, EvalResult],
    ) -> list[DesignPoint]:
        raise NotImplementedError


class GridStrategy(Strategy):
    """Exhaustive sweep: every point of the space, one batch."""

    name = "grid"

    def propose(self, space, evaluated):
        if evaluated:
            return []
        return space.grid()


class RandomStrategy(Strategy):
    """Seeded sample of ``n`` distinct grid points, one batch."""

    name = "random"

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 1:
            raise CgpaError(f"random strategy needs n >= 1, got {n}")
        self.n = n
        self.seed = seed

    def propose(self, space, evaluated):
        if evaluated:
            return []
        return space.sample(self.n, seed=self.seed)


class HillClimbStrategy(Strategy):
    """Greedy one-knob descent from the space's default point.

    Each round proposes the unevaluated neighbors of the current best
    point; the climb moves when some neighbor improves the objective and
    stops at a local optimum or when ``max_evals`` points have been
    proposed.  Failed points (deadlock/timeout/error) score as infinitely
    bad, so the climb walks around broken regions of the space.
    """

    name = "hillclimb"

    def __init__(
        self,
        objective: str = "cycles",
        max_evals: int = 32,
    ) -> None:
        if max_evals < 1:
            raise CgpaError(f"hillclimb needs max_evals >= 1, got {max_evals}")
        self.objective = objective
        self.max_evals = max_evals
        self._current: DesignPoint | None = None
        self._proposed = 0
        self._done = False

    def _score(self, result: EvalResult | None) -> float:
        if result is None or not result.ok:
            return float("inf")
        return float(getattr(result, self.objective))

    def propose(self, space, evaluated):
        if self._done:
            return []
        if self._current is None:
            self._current = space.default_point()
            self._proposed += 1
            return [self._current]
        # Chain moves through already-evaluated neighbors while they improve.
        # Runs before the budget check so the final batch still moves the
        # climb (``best`` reflects every evaluation that was paid for).
        current_score = self._score(evaluated.get(self._current))
        while True:
            candidates = [
                (self._score(evaluated[p]), p.label, p)
                for p in space.neighbors(self._current)
                if p in evaluated
            ]
            if not candidates:
                break
            best_score, _, best = min(candidates)
            if best_score >= current_score:
                break
            self._current, current_score = best, best_score
        if self._proposed >= self.max_evals:
            self._done = True
            return []
        batch = [
            p
            for p in space.neighbors(self._current)
            if p not in evaluated
        ][: self.max_evals - self._proposed]
        if not batch:
            self._done = True
            return []
        self._proposed += len(batch)
        return batch

    @property
    def best(self) -> DesignPoint | None:
        """Where the climb currently sits (the local optimum when done)."""
        return self._current
