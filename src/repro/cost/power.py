"""Activity-based power and energy model (Table 3's power/energy columns).

Power = static + dynamic.  Static power scales with ALUT count (leakage
plus clock tree); dynamic energy is accumulated per executed operation,
per cache access and per FIFO push/pop from the simulator's activity
counters — the same methodology as the paper's PowerPlay estimation from
post-fitter activity files, with per-op energies as calibration constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.system import SimReport
from ..ir.function import Function
from ..rtl.resources import (
    CACHE_HIT_PJ,
    CACHE_MISS_PJ,
    FIFO_ACCESS_PJ,
    STATIC_UW_PER_ALUT,
    cost_of,
)
from .area import AreaReport

#: Paper Section 4.1: 200 MHz synthesis target.
DEFAULT_FREQUENCY_HZ = 200e6


@dataclass
class PowerReport:
    """Power/energy summary of one simulated run."""

    cycles: int
    time_s: float
    dynamic_energy_j: float
    static_power_w: float

    @property
    def dynamic_power_w(self) -> float:
        return self.dynamic_energy_j / self.time_s if self.time_s else 0.0

    @property
    def total_power_w(self) -> float:
        return self.static_power_w + self.dynamic_power_w

    @property
    def total_energy_j(self) -> float:
        return self.total_power_w * self.time_s

    @property
    def power_mw(self) -> float:
        return self.total_power_w * 1e3

    @property
    def energy_uj(self) -> float:
        return self.total_energy_j * 1e6


def _mean_op_energy_pj(functions: list[Function]) -> dict[str, float]:
    """A representative per-opcode energy from the functions' actual
    instruction mix (f64 ops cost more than f32/int of the same opcode)."""
    per_opcode: dict[str, list[float]] = {}
    for function in functions:
        for inst in function.instructions():
            per_opcode.setdefault(inst.opcode, []).append(cost_of(inst).energy_pj)
    return {op: sum(costs) / len(costs) for op, costs in per_opcode.items()}


def power_report(
    sim: SimReport,
    area: AreaReport,
    functions: list[Function],
) -> PowerReport:
    """Combine simulator activity and area into power/energy figures at
    :data:`DEFAULT_FREQUENCY_HZ`."""
    time_s = sim.cycles / DEFAULT_FREQUENCY_HZ
    dynamic_pj = 0.0
    mean_pj = _mean_op_energy_pj(functions)  # one table for every worker
    for stats in sim.worker_stats.values():
        ops_pj = 0.0  # per-worker subtotal: the float sum order is pinned
        for opcode, count in stats.ops_executed.items():
            ops_pj += mean_pj.get(opcode, 1.0) * count
        dynamic_pj += ops_pj
        dynamic_pj += FIFO_ACCESS_PJ * (stats.fifo_pushes + stats.fifo_pops)
    dynamic_pj += CACHE_HIT_PJ * sim.cache_stats.hits
    dynamic_pj += CACHE_MISS_PJ * sim.cache_stats.misses
    static_w = area.total_aluts * STATIC_UW_PER_ALUT * 1e-6
    # BRAM static contribution (FIFO storage).
    static_w += area.bram_bits * 0.01e-6
    return PowerReport(
        cycles=sim.cycles,
        time_s=time_s,
        dynamic_energy_j=dynamic_pj * 1e-12,
        static_power_w=static_w,
    )
