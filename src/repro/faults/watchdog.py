"""Watchdog: structured deadlock / budget diagnosis for the simulator.

Both simulator engines used to die with a bare string ("hardware
deadlock at cycle N").  The watchdog replaces that with a wait-for-graph
analysis over the live workers:

* every blocked worker becomes a node, annotated with the FIFO operation
  it is stuck on and a depth/occupancy snapshot of that buffer;
* edges follow the hardware's wake rules — a producer blocked on a full
  buffer waits on that buffer's consumers, a consumer blocked on an
  empty buffer waits on its producers, a ``parallel_join`` waits on its
  loop group (producer/consumer sets are recovered statically from the
  ``produce``/``consume`` instructions of each worker's function);
* a cycle in that graph is reported as the suspected deadlock cycle; a
  hung worker (injected fault or wedged FSM — blocked on nothing while
  everything waits on it transitively) is reported as the root cause.

The same diagnosis is computed from either engine at the same cycle, so
the two remain byte-identical even in how they fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CycleBudgetExceeded, DeadlockError
from ..ir.instructions import Call, Consume, Produce, ProduceBroadcast
from ..telemetry.events import CycleCategory

#: Wait categories with no self-resolving wake: only another worker's
#: action (or nothing, ever) unblocks them.
BLOCKING_CATEGORIES = (
    CycleCategory.FIFO_FULL,
    CycleCategory.FIFO_EMPTY,
    CycleCategory.JOIN,
)


@dataclass
class BlockedWorker:
    """One node of the wait-for graph: a worker that cannot progress."""

    name: str
    seq: int
    reason: str  # "produce", "produce-broadcast", "consume", "join", "hung"
    fifo: str | None = None
    queue: int | None = None  # None for broadcast (needs space everywhere)
    occupancy: tuple[int, ...] = ()
    depth: int | None = None
    loop_id: int | None = None
    hung: bool = False

    def describe(self) -> str:
        if self.hung:
            return f"{self.name} hung (FSM frozen, waits on nothing)"
        if self.reason == "join":
            return f"{self.name} blocked in parallel_join on loop {self.loop_id}"
        where = f"queue {self.queue}" if self.queue is not None else "all queues"
        occ = "/".join(str(n) for n in self.occupancy)
        op = "push to" if self.reason.startswith("produce") else "pop from"
        return (
            f"{self.name} blocked on {op} {self.fifo} "
            f"({where}, occupancy [{occ}] of depth {self.depth})"
        )


@dataclass
class DeadlockDiagnosis:
    """Structured wait-for-graph report carried on :class:`DeadlockError`."""

    cycle: int
    blocked: list[BlockedWorker] = field(default_factory=list)
    #: worker names forming a mutual-wait cycle, in discovery order
    #: (edge i -> i+1, last wraps to first); empty when none was found.
    suspected_cycle: list[str] = field(default_factory=list)
    #: name of a hung worker everything else transitively waits on.
    root_hang: str | None = None

    def worker(self, name: str) -> BlockedWorker | None:
        for entry in self.blocked:
            if entry.name == name:
                return entry
        return None

    def format(self) -> str:
        """Render the full report; the first line keeps the legacy shape
        (``hardware deadlock at cycle N: ...``) for string-matching
        callers."""
        summary = ", ".join(
            f"{w.name} ({'hung' if w.hung else w.reason}"
            + (f" {w.fifo}" if w.fifo else "")
            + ")"
            for w in self.blocked
        ) or "no live workers"
        lines = [
            f"hardware deadlock at cycle {self.cycle}: no runnable worker "
            f"and no pending event; blocked: {summary}"
        ]
        for entry in self.blocked:
            lines.append(f"  - {entry.describe()}")
        if self.root_hang is not None:
            lines.append(f"  root cause: worker {self.root_hang} is hung")
        if self.suspected_cycle:
            lines.append(
                "  suspected cycle: " + " -> ".join(self.suspected_cycle)
                + f" -> {self.suspected_cycle[0]}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "blocked": [
                {
                    "name": w.name,
                    "reason": "hung" if w.hung else w.reason,
                    "fifo": w.fifo,
                    "queue": w.queue,
                    "occupancy": list(w.occupancy),
                    "depth": w.depth,
                }
                for w in self.blocked
            ],
            "suspected_cycle": list(self.suspected_cycle),
            "root_hang": self.root_hang,
        }


def _channel_io(worker) -> tuple[set[int], set[int]]:
    """Channel ids this worker's code can push to / pop from.

    Walks the worker's current call stack plus every function reachable
    through ``call`` instructions (the static task body), so the graph
    edges do not depend on where exactly each FSM stopped.
    """
    produces: set[int] = set()
    consumes: set[int] = set()
    seen: set[int] = set()
    stack = [frame.function for frame in worker._frames]
    while stack:
        function = stack.pop()
        if id(function) in seen or function.is_declaration:
            continue
        seen.add(id(function))
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, (Produce, ProduceBroadcast)):
                    produces.add(inst.channel.channel_id)
                elif isinstance(inst, Consume):
                    consumes.add(inst.channel.channel_id)
                elif isinstance(inst, Call):
                    stack.append(inst.callee)
    return produces, consumes


def _find_cycle(edges: dict[str, list[str]]) -> list[str]:
    """First cycle in a tiny digraph (deterministic DFS order)."""
    visiting: list[str] = []
    visited: set[str] = set()

    def dfs(node: str) -> list[str]:
        if node in visiting:
            return visiting[visiting.index(node):]
        if node in visited:
            return []
        visiting.append(node)
        for succ in edges.get(node, ()):
            found = dfs(succ)
            if found:
                return found
        visiting.pop()
        visited.add(node)
        return []

    for node in sorted(edges):
        found = dfs(node)
        if found:
            return found
    return []


class Watchdog:
    """Builds typed, diagnosable failures for a stuck accelerator system."""

    def diagnose(self, system, cycle: int) -> DeadlockDiagnosis:
        """Snapshot the wait-for graph of ``system`` at ``cycle``."""
        blocked: list[BlockedWorker] = []
        live = [w for w in system._workers if not w.done]
        for worker in live:
            if worker.hung:
                blocked.append(
                    BlockedWorker(worker.name, worker.seq, "hung", hung=True)
                )
                continue
            category = worker.last_category
            if category is CycleCategory.JOIN:
                blocked.append(
                    BlockedWorker(
                        worker.name, worker.seq, "join",
                        loop_id=worker._blocked_loop,
                    )
                )
                continue
            fifo = worker._blocked_fifo
            if fifo is None or category not in (
                CycleCategory.FIFO_FULL, CycleCategory.FIFO_EMPTY
            ):
                # Shouldn't happen at a genuine deadlock; keep the report
                # total instead of crashing inside the error path.
                blocked.append(
                    BlockedWorker(worker.name, worker.seq, category.value)
                )
                continue
            reason = "consume"
            if category is CycleCategory.FIFO_FULL:
                reason = (
                    "produce" if worker._blocked_index is not None
                    else "produce-broadcast"
                )
            blocked.append(
                BlockedWorker(
                    worker.name,
                    worker.seq,
                    reason,
                    fifo=fifo.name,
                    queue=worker._blocked_index,
                    occupancy=tuple(len(q) for q in fifo.queues),
                    depth=fifo.depth,
                )
            )

        edges = self._wait_edges(system, live, blocked)
        cycle_names = _find_cycle(edges)
        root_hang = None
        for entry in blocked:
            if entry.hung:
                root_hang = entry.name
                break
        return DeadlockDiagnosis(
            cycle=cycle,
            blocked=blocked,
            suspected_cycle=cycle_names,
            root_hang=root_hang,
        )

    def _wait_edges(
        self, system, live, blocked: list[BlockedWorker]
    ) -> dict[str, list[str]]:
        """worker name -> names of workers whose action could unblock it."""
        io = {worker.name: _channel_io(worker) for worker in live}
        by_name = {worker.name: worker for worker in live}
        channel_of_fifo = {
            fifo.name: fifo.channel.channel_id
            for fifo in system.fifos.values()
        }
        edges: dict[str, list[str]] = {}
        for entry in blocked:
            targets: list[str] = []
            if entry.hung:
                edges[entry.name] = []
                continue
            if entry.reason == "join":
                group = system._loop_groups.get(entry.loop_id, [])
                targets = [w.name for w in group if not w.done]
            elif entry.fifo is not None:
                channel_id = channel_of_fifo.get(entry.fifo)
                # Full buffer: space comes from a consumer's pop.
                # Empty buffer: data comes from a producer's push.
                want_consumers = entry.reason.startswith("produce")
                for name, (produces, consumes) in io.items():
                    if name == entry.name:
                        continue
                    relevant = consumes if want_consumers else produces
                    if channel_id in relevant and name in by_name:
                        targets.append(name)
            edges[entry.name] = targets
        return edges

    # -- typed failures -----------------------------------------------------

    def deadlock(self, system, cycle: int) -> DeadlockError:
        diagnosis = self.diagnose(system, cycle)
        return DeadlockError(diagnosis.format(), diagnosis=diagnosis)

    def budget_exceeded(self, system, cycle: int) -> CycleBudgetExceeded:
        return CycleBudgetExceeded(system.max_cycles, cycle=cycle)


#: Shared stateless instance used by both engines.
WATCHDOG = Watchdog()
