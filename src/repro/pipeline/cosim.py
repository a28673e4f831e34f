"""Functional co-simulation of transformed pipelines.

Runs the transformed parent under the interpreter; ``parallel_fork``
enters one task interpreter per worker and ``parallel_join`` resumes
them round-robin, each until it parks on an empty channel (at whatever
consume, however deep in the task's calls) or finishes, over unbounded in-order channels until every
task finishes.  No timing is modelled — this layer answers only "does
the pipelined program compute exactly what the sequential one did?",
which is the property the paper's generated testbenches assert.

Each join is recorded as a :class:`RoundRecord`: the memory image,
queues and live-outs at its start and end, and the round's slice of the
:class:`~repro.interp.ChannelIO` logs, attributed per worker instance.
That record is the RTL co-simulation's oracle (:mod:`repro.vsim.cosim`).

The cycle-accurate hardware model lives in :mod:`repro.hw`; both layers
share the task functions and channel plan, so functional equivalence here
validates the transform for the hardware simulation as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..interp.interpreter import ChannelIO, Interpreter
from ..interp.memory import Memory
from ..ir.function import Function
from ..ir.instructions import ParallelFork
from ..ir.module import Module
from .transform import fork_call


@dataclass
class TaskRun:
    """One forked worker instance within a round."""

    tag: str
    task: Function
    args: list[int | float]
    worker_id: int


@dataclass
class RoundRecord:
    """Everything one fork/join round did."""

    loop_id: int
    runs: list[TaskRun]
    start_mem: Memory
    queue_start: dict[tuple[int, int], tuple]
    liveouts_start: dict[int, int | float]
    end_mem: Memory | None = None
    queue_end: dict[tuple[int, int], tuple] = field(default_factory=dict)
    push_log: list = field(default_factory=list)
    pop_log: list = field(default_factory=list)
    liveout_log: list = field(default_factory=list)


class FunctionalForkHandler:
    """Executes forked tasks at join time (cooperative round-robin) and
    appends a :class:`RoundRecord` of each join to ``rounds``."""

    def __init__(
        self,
        module: Module,
        memory: Memory,
        global_addresses: dict[str, int],
        channel_io: ChannelIO,
    ) -> None:
        self.module = module
        self.memory = memory
        self.global_addresses = global_addresses
        self.channel_io = channel_io
        self._pending: dict[int, list[tuple[Interpreter, TaskRun]]] = {}
        self.rounds: list[RoundRecord] = []

    def fork(self, inst: ParallelFork, livein_values: list[int | float]) -> None:
        worker_id, args = fork_call(inst, livein_values)
        machine = Interpreter(
            self.module,
            self.memory,
            channel_io=self.channel_io,
            worker_id=worker_id,
            global_addresses=self.global_addresses,
        )
        machine.enter(inst.task, args)
        run = TaskRun(f"{inst.task.name}@w{worker_id}", inst.task, args, worker_id)
        self._pending.setdefault(inst.loop_id, []).append((machine, run))

    def join(self, loop_id: int) -> None:
        io = self.channel_io
        pending = self._pending.pop(loop_id, [])
        record = RoundRecord(
            loop_id=loop_id,
            runs=[run for _, run in pending],
            start_mem=self.memory.clone(),
            queue_start=io.queue_snapshot(),
            liveouts_start=dict(io.liveouts),
        )
        marks = (len(io.push_log), len(io.pop_log), len(io.liveout_log))
        try:
            while pending:
                steps = sum(machine.steps for machine, _ in pending)
                parked = []
                for machine, run in pending:
                    io.tag = run.tag
                    if not machine.resume():
                        parked.append((machine, run))
                if len(parked) == len(pending) and (
                    sum(machine.steps for machine, _ in parked) == steps
                ):
                    raise SimulationError(
                        f"pipeline deadlock: {len(parked)} task(s) "
                        f"blocked on empty channels"
                    )
                pending = parked
        finally:
            io.tag = "parent"
        record.end_mem = self.memory.clone()
        record.queue_end = io.queue_snapshot()
        record.push_log = io.push_log[marks[0]:]
        record.pop_log = io.pop_log[marks[1]:]
        record.liveout_log = io.liveout_log[marks[2]:]
        self.rounds.append(record)


def run_transformed(
    module: Module,
    entry: str,
    args: list[int | float],
    memory: Memory | None = None,
    global_addresses: dict[str, int] | None = None,
):
    """Run a transformed module functionally; returns (result, memory, handler).

    ``global_addresses`` places the module's globals where an earlier run
    (the workload set-up) left them in ``memory``."""
    memory = memory if memory is not None else Memory()
    # The parent shares the channel IO so retrieve_liveout sees the task
    # workers' store_liveout registers.
    channel_io = ChannelIO()
    parent = Interpreter(
        module, memory, channel_io=channel_io, global_addresses=global_addresses
    )
    handler = FunctionalForkHandler(
        module, memory, parent.global_addresses, channel_io
    )
    parent.fork_handler = handler
    result = parent.call(entry, args)
    return result, memory, handler
