"""Design-space exploration: sweep accelerator knobs, report frontiers.

The subsystem the CGPA paper stops short of: instead of one hand-picked
configuration per kernel, enumerate the knob space (replication policy,
worker count, FIFO depth, cache organisation), evaluate each point with
the event-driven simulator plus the area/power cost model, and extract
the Pareto frontier over (cycles, total_aluts, energy_uj).  Sweeps run
on a process pool, are incremental thanks to the content-addressed
artifact store, and are byte-deterministic across pool sizes.

Entry points: ``python -m repro.harness dse <kernel>`` on the command
line, or::

    from repro.dse import ConfigSpace, Explorer, GridStrategy
    sweep = Explorer(spec, ConfigSpace(), processes=4).run(GridStrategy())
    for best in sweep.frontier():
        print(best.point.label, best.objectives())
"""

from .evaluate import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_EVAL_MAX_CYCLES,
    STATUSES,
    EvalResult,
    Evaluator,
    result_key,
)
from .explore import Explorer, SweepResult
from .pareto import OBJECTIVES, dominates, pareto_frontier
from .space import POLICIES, ConfigSpace, DesignPoint
from .strategies import (
    GridStrategy,
    HillClimbStrategy,
    RandomStrategy,
    Strategy,
)

__all__ = [
    "ConfigSpace", "DesignPoint", "POLICIES",
    "Evaluator", "EvalResult", "STATUSES", "DEFAULT_EVAL_MAX_CYCLES",
    "result_key", "CACHE_SCHEMA_VERSION",
    "Strategy", "GridStrategy", "RandomStrategy", "HillClimbStrategy",
    "pareto_frontier", "dominates", "OBJECTIVES",
    "Explorer", "SweepResult",
]
