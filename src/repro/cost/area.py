"""ALUT / BRAM area model (Table 3's area columns).

Area is estimated from the datapath: every IR operation in a worker
module instantiates one functional unit (spatial HLS), plus FSM control
logic, FIFO controllers, and the cache request/response arbiter slices.
Called functions become sub-modules, instantiated once per worker that
calls them (each worker is an independent hardware module with its own
control, per Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.instructions import Call
from ..ir.primitives import DEFAULT_FIFO_DEPTH, ChannelPlan
from ..rtl.resources import (
    ARBITER_ALUTS_PER_PORT,
    FIFO_ALUTS_PER_CHANNEL,
    FSM_BASE_ALUTS,
    cost_of,
)


@dataclass
class AreaReport:
    """Area breakdown of one accelerator configuration."""

    worker_aluts: dict[str, int] = field(default_factory=dict)
    fifo_aluts: int = 0
    arbiter_aluts: int = 0
    bram_bits: int = 0

    @property
    def total_aluts(self) -> int:
        return sum(self.worker_aluts.values()) + self.fifo_aluts + self.arbiter_aluts


def function_aluts(function: Function, _seen: frozenset[str] = frozenset()) -> int:
    """Datapath + control ALUTs of one hardware module (with sub-modules)."""
    total = FSM_BASE_ALUTS
    callees: dict[str, Function] = {}
    for inst in function.instructions():
        total += cost_of(inst).aluts
        if isinstance(inst, Call) and not inst.callee.is_declaration:
            callees[inst.callee.name] = inst.callee
    for name, callee in callees.items():
        if name in _seen:
            continue  # recursion: one instance suffices
        total += function_aluts(callee, _seen | {name})
    return total


def accelerator_area(
    tasks: list[Function],
    worker_counts: list[int],
    channels: ChannelPlan | None = None,
    cache_ports: int = 8,
    fifo_depth: int = DEFAULT_FIFO_DEPTH,
) -> AreaReport:
    """Area of a CGPA pipeline: per-stage workers + FIFOs + arbiter.

    ``tasks[i]`` is instantiated ``worker_counts[i]`` times (the parallel
    stage replicates its module per worker — the dominant term behind the
    paper's ~4.1x ALUT overhead).
    """
    report = AreaReport()
    for task, count in zip(tasks, worker_counts):
        module_aluts = function_aluts(task)
        report.worker_aluts[task.name] = module_aluts * count
    if channels is not None:
        for channel in channels:
            report.fifo_aluts += FIFO_ALUTS_PER_CHANNEL * channel.n_channels
            slots = channel.fifo_slots_per_value
            report.bram_bits += 32 * slots * fifo_depth * channel.n_channels
    report.arbiter_aluts = ARBITER_ALUTS_PER_PORT * cache_ports
    return report


def single_module_area(function: Function, cache_ports: int = 1) -> AreaReport:
    """Area of a LegUp-style single-FSM accelerator for ``function``."""
    report = AreaReport()
    report.worker_aluts[function.name] = function_aluts(function)
    report.arbiter_aluts = ARBITER_ALUTS_PER_PORT * cache_ports
    return report
