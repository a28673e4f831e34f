"""Functional co-simulation of transformed pipelines.

Runs the transformed parent under the interpreter; ``parallel_fork``
enters one task interpreter per worker and ``parallel_join`` resumes
them round-robin, each until it parks on an empty channel (at whatever
consume, however deep in the task's calls) or finishes, over unbounded in-order channels until every
task finishes.  No timing is modelled — this layer answers only "does
the pipelined program compute exactly what the sequential one did?",
which is the property the paper's generated testbenches assert.

The cycle-accurate hardware model lives in :mod:`repro.hw`; both layers
share the task functions and channel plan, so functional equivalence here
validates the transform for the hardware simulation as well.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..interp.interpreter import ChannelIO, Interpreter
from ..interp.memory import Memory
from ..ir.instructions import ParallelFork
from ..ir.module import Module
from .transform import fork_call


class FunctionalForkHandler:
    """Executes forked tasks at join time (cooperative round-robin)."""

    def __init__(
        self,
        module: Module,
        memory: Memory,
        global_addresses: dict[str, int],
        channel_io: ChannelIO | None = None,
    ) -> None:
        self.module = module
        self.memory = memory
        self.global_addresses = global_addresses
        self.channel_io = channel_io if channel_io is not None else ChannelIO()
        self._pending: dict[int, list[Interpreter]] = {}

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
        self._pending.setdefault(inst.loop_id, []).append(machine)

    def join(self, loop_id: int) -> None:
        machines = self._pending.pop(loop_id, [])
        while machines:
            steps = sum(machine.steps for machine in machines)
            parked = [machine for machine in machines if not self._resume(machine)]
            if len(parked) == len(machines) and sum(m.steps for m in parked) == steps:
                raise SimulationError(
                    f"pipeline deadlock: {len(parked)} task(s) "
                    f"blocked on empty channels"
                )
            machines = parked

    def _resume(self, machine: Interpreter) -> bool:
        """Run ``machine`` until it parks (False) or finishes (True)."""
        return machine.resume()


def run_transformed(
    module: Module,
    entry: str,
    args: list[int | float],
    memory: Memory | None = None,
):
    """Run a transformed module functionally; returns (result, memory, handler)."""
    memory = memory if memory is not None else Memory()
    # The parent shares the channel IO so retrieve_liveout sees the task
    # workers' store_liveout registers.
    channel_io = ChannelIO()
    parent = Interpreter(module, memory, channel_io=channel_io)
    handler = FunctionalForkHandler(
        module, memory, parent.global_addresses, channel_io
    )
    parent.fork_handler = handler
    result = parent.call(entry, args)
    return result, memory, handler
