"""Differential co-simulation: emitted Verilog vs the interpreter oracle.

Closes the emit→execute loop for the RTL backend.  A kernel is compiled
with the normal CGPA pipeline, then executed twice:

1. **Oracle** — :func:`~repro.pipeline.cosim.run_transformed` runs the
   transformed module under the functional interpreter; its fork
   handler records, per fork/join *round* and per worker instance, the
   memory image at round entry/exit, every channel push/pop (in order,
   with values) and every live-out write.
2. **RTL** — for each recorded round, every worker instance's emitted
   Verilog module (plus its transitive callees) is elaborated in
   :mod:`repro.vsim` and driven cycle by cycle against a shared byte
   memory, bounded FIFO queues and a mirrored live-out register file —
   the same environment the generated testbench models.

The diff then asserts, bit for bit: final live-out registers, the final
memory image, per-instance push/pop sequences (order, select and
payload) and leftover queue tokens.  Cycle counts are *not* compared —
vsim's environment serves memory in a fixed two-cycle handshake, not the
cache model of :mod:`repro.hw`.

Contract notes:

* Each round's RTL run starts from the oracle's round-entry memory
  image and queue state, so rounds are checked independently (a diff in
  round *k* cannot corrupt round *k+1*'s verdict).
* The RTL dataflow is closed: consumers pop the bit patterns producers
  pushed, not oracle values — the oracle only provides the *expected*
  sequences.
* ``alloca`` scratchpads are unsupported in cosim (the interpreter
  heap-allocates them); no kernel task uses one, and a task that does
  raises before simulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from ..errors import CgpaError
from ..harness.build import compile_kernel
from ..harness.runner import interned_workload
from ..interp import BROADCAST_INDEX, Memory, to_unsigned
from ..ir.instructions import Alloca, Produce, ProduceBroadcast, StoreLiveout
from ..kernels import KERNELS_BY_NAME, KernelSpec
from ..pipeline import ReplicationPolicy
from ..pipeline.cosim import RoundRecord, TaskRun, run_transformed
from ..rtl.testbench import generate_testbench
from ..rtl.verilog import (
    _collect_aux_signals,
    _float_bits,
    _sanitize,
    _width,
    generate_verilog_hierarchy,
)
from .elaborate import elaborate
from .errors import VsimRuntimeError
from .sim import Simulation

#: Scaled-down workloads for co-simulation: vsim runs every clock edge in
#: Python, and the nine kernels' paper-scale inputs take 5.5 s at p1
#: (two-core Xeon, CPython 3.11) against 0.85 s for these.  By kernel name.
SMOKE_SETUP_ARGS: dict[str, list[int]] = {
    "ks": [8, 8],
    "em3d": [16, 8, 3],
    "1D-Gaussblur": [4, 24],
    "Hash-indexing": [48, 16],
    "K-means": [12, 3, 4],
    "bfs": [1, 14, 2],
    "hash-join": [1, 12, 10, 4],
    "spmv": [1, 6, 8, 2],
    "top-k": [1, 12, 4],
}

#: Default per-round cycle budget of :func:`run_rtl_cosim` (and of the
#: service's ``rtl`` job option): smoke-scale rounds finish in thousands.
DEFAULT_COSIM_MAX_CYCLES = 500_000

_BROADCAST_SEL = 0xF


def value_to_bits(value: int | float, width: int) -> int:
    """The bit pattern a ``width``-bit datapath register holds for ``value``."""
    if isinstance(value, float):
        return _float_bits(value, 64 if width == 64 else 32)
    return to_unsigned(int(value), width)


# --------------------------------------------------------------------------
# RTL environment
# --------------------------------------------------------------------------


class _RoundShared:
    """State shared by every RTL instance of one round."""

    def __init__(
        self,
        memory: Memory,
        n_channels: dict[int, int],
        fifo_depth: int,
        liveouts: dict[int, int],
    ) -> None:
        self.memory = memory
        self.n_channels = n_channels
        self.fifo_depth = fifo_depth
        self.liveouts = liveouts
        # Deques: popping the head of a deep queue was O(n) per token.
        self.queues: dict[tuple[int, int], deque[int]] = {}

    def queue(self, cid: int, idx: int) -> deque[int]:
        return self.queues.setdefault((cid, idx), deque())


class _RtlInstance:
    """Drives one worker module against the shared round environment."""

    def __init__(self, run: TaskRun, design, shared: _RoundShared) -> None:
        self.run = run
        self.tag = run.tag
        self.aux = _collect_aux_signals(run.task)
        #: ``(liveout_id, port)`` of each live-out this module only reads,
        #: and of each it stores.
        self.liveout_inputs = [(lid, f"liveout_{lid}") for lid in self.aux.liveout_inputs]
        self.liveout_stores = [(lid, f"liveout_{lid}") for lid in self.aux.liveout_stores]
        self.shared = shared
        self.sim = Simulation(design)
        #: The module's ``finish`` output, sampled once per edge (a register:
        #: nothing between two edges changes it).
        self.finished = False
        self.push_seen: list[tuple[int, int, int]] = []
        self.pop_seen: list[tuple[int, int, int]] = []
        self.finish_cycle: int | None = None
        self._pending_mem: tuple[int, int, int] | None = None
        self._pending_push: tuple[int, int, int] | None = None
        self._pending_pop: tuple[int, int] | None = None
        for arg, value in zip(run.task.args, run.args):
            self.sim.poke(
                f"arg_{_sanitize(arg.name)}",
                value_to_bits(value, _width(arg.type)),
            )
        # The live-out register file is global in hardware; seed this
        # module's slice (stores keep their own copy, inputs mirror).
        for lid, port in self.liveout_stores:
            self.sim.poke(port, shared.liveouts.get(lid, 0))
        for loop_id in self.aux.join_loops:
            self.sim.poke(f"all_finished_loop{loop_id}", 1)

    # --------------------------------------------------------- per cycle

    def drive(self) -> None:
        """Compute environment inputs from the committed module outputs."""
        sim, liveouts = self.sim, self.shared.liveouts
        for lid, port in self.liveout_inputs:
            sim.poke(port, liveouts.get(lid, 0))
        if self.finished:
            return
        self._drive_memory(sim)
        self._drive_push(sim)
        self._drive_pop(sim)

    def _drive_memory(self, sim: Simulation) -> None:
        if sim.peek("mem_ack"):
            sim.poke("mem_ack", 0)
            return
        if not sim.peek("mem_req"):
            return
        addr = sim.peek("mem_addr")
        size = sim.peek("mem_size")
        if size == 0 or size > 8:
            raise VsimRuntimeError(
                f"{self.tag}: memory access of {size} bytes at 0x{addr:x}"
            )
        if sim.peek("mem_we"):
            data = sim.peek("mem_wdata") & ((1 << (8 * size)) - 1)
            self._pending_mem = (addr, size, data)
        else:
            raw = self.shared.memory.read_bytes(addr, size)
            sim.poke("mem_rdata", int.from_bytes(raw, "little"))
        sim.poke("mem_ack", 1)

    def _drive_push(self, sim: Simulation) -> None:
        if not sim.peek("fifo_push_valid"):
            sim.poke("fifo_push_ready", 0)
            return
        sel = sim.peek("fifo_push_sel")
        cid, idx = sel >> 4, sel & 0xF
        nch = self._channel_width_check(cid, idx, "push")
        depth = self.shared.fifo_depth
        if idx == _BROADCAST_SEL:
            ready = all(
                len(self.shared.queue(cid, i)) < depth for i in range(nch)
            )
        else:
            ready = len(self.shared.queue(cid, idx)) < depth
        sim.poke("fifo_push_ready", int(ready))
        if ready:
            self._pending_push = (cid, idx, sim.peek("fifo_push_data"))

    def _drive_pop(self, sim: Simulation) -> None:
        if not sim.peek("fifo_pop_valid"):
            sim.poke("fifo_pop_ready", 0)
            return
        sel = sim.peek("fifo_pop_sel")
        cid, idx = sel >> 4, sel & 0xF
        self._channel_width_check(cid, idx, "pop")
        queue = self.shared.queue(cid, idx)
        if queue:
            sim.poke("fifo_pop_ready", 1)
            sim.poke("fifo_pop_data", queue[0])
            self._pending_pop = (cid, idx)
        else:
            sim.poke("fifo_pop_ready", 0)

    def _channel_width_check(self, cid: int, idx: int, kind: str) -> int:
        nch = self.shared.n_channels.get(cid)
        if nch is None:
            raise VsimRuntimeError(f"{self.tag}: {kind} to unknown channel {cid}")
        if idx != _BROADCAST_SEL and idx >= nch:
            raise VsimRuntimeError(
                f"{self.tag}: {kind} index {idx} out of range for channel "
                f"{cid} ({nch} queues)"
            )
        if idx == _BROADCAST_SEL and kind == "pop":
            raise VsimRuntimeError(f"{self.tag}: pop with broadcast select")
        return nch

    def post_edge(self, cycle: int) -> None:
        """Apply the transfers that happened on this clock edge."""
        if self._pending_mem is not None:
            addr, size, data = self._pending_mem
            self.shared.memory.write_bytes(addr, data.to_bytes(size, "little"))
            self._pending_mem = None
        if self._pending_push is not None:
            cid, idx, bits = self._pending_push
            self.push_seen.append((cid, idx, bits))
            if idx == _BROADCAST_SEL:
                for i in range(self.shared.n_channels[cid]):
                    self.shared.queue(cid, i).append(bits)
            else:
                self.shared.queue(cid, idx).append(bits)
            self._pending_push = None
        if self._pending_pop is not None:
            cid, idx = self._pending_pop
            bits = self.shared.queue(cid, idx).popleft()
            self.pop_seen.append((cid, idx, bits))
            self._pending_pop = None
        for lid, port in self.liveout_stores:
            self.shared.liveouts[lid] = self.sim.peek(port)
        self.finished = self.sim.peek("finish") == 1
        if self.finished and self.finish_cycle is None:
            self.finish_cycle = cycle


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


@dataclass
class LiveoutDiff:
    liveout_id: int
    oracle_bits: int
    rtl_bits: int

    @property
    def ok(self) -> bool:
        return self.oracle_bits == self.rtl_bits

    def to_dict(self) -> dict:
        return {
            "liveout_id": self.liveout_id,
            "oracle_bits": self.oracle_bits,
            "rtl_bits": self.rtl_bits,
            "ok": self.ok,
        }


@dataclass
class InstanceReport:
    tag: str
    cycles: int
    liveouts: list[LiveoutDiff] = field(default_factory=list)
    traffic_diff: str | None = None  # first push/pop sequence mismatch

    @property
    def ok(self) -> bool:
        return self.traffic_diff is None and all(d.ok for d in self.liveouts)

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "cycles": self.cycles,
            "liveouts": [d.to_dict() for d in self.liveouts],
            "traffic_diff": self.traffic_diff,
            "ok": self.ok,
        }


@dataclass
class RoundReport:
    index: int
    loop_id: int
    instances: list[InstanceReport] = field(default_factory=list)
    memory_diff: str | None = None
    queue_diff: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.memory_diff is None
            and self.queue_diff is None
            and all(i.ok for i in self.instances)
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "loop_id": self.loop_id,
            "instances": [i.to_dict() for i in self.instances],
            "memory_diff": self.memory_diff,
            "queue_diff": self.queue_diff,
            "ok": self.ok,
        }


@dataclass
class CosimReport:
    kernel: str
    policy: str
    n_workers: int
    fifo_depth: int
    setup_args: list[int]
    oracle_result: int | float | None
    rounds: list[RoundReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rounds)

    @property
    def total_cycles(self) -> int:
        return sum(
            max((i.cycles for i in r.instances), default=0)
            for r in self.rounds
        )

    def to_dict(self) -> dict:
        """JSON verdict form (service artifact / machine-readable log)."""
        return {
            "kernel": self.kernel,
            "policy": self.policy,
            "n_workers": self.n_workers,
            "fifo_depth": self.fifo_depth,
            "setup_args": list(self.setup_args),
            "oracle_result": self.oracle_result,
            "total_cycles": self.total_cycles,
            "rounds": [r.to_dict() for r in self.rounds],
            "ok": self.ok,
        }

    def format(self) -> str:
        lines = [
            f"RTL co-simulation: {self.kernel} "
            f"(policy {self.policy}, {self.n_workers} workers, "
            f"fifo depth {self.fifo_depth}, setup args {self.setup_args})",
            f"oracle checksum: {self.oracle_result}",
        ]
        for rnd in self.rounds:
            lines.append(
                f"round {rnd.index} (loop {rnd.loop_id}): "
                f"{len(rnd.instances)} worker module(s)"
            )
            lines.append("  instance                          cycles  liveouts  traffic")
            for inst in rnd.instances:
                lv = (
                    "-" if not inst.liveouts else
                    "ok" if all(d.ok for d in inst.liveouts) else "DIFF"
                )
                tr = "ok" if inst.traffic_diff is None else "DIFF"
                lines.append(
                    f"  {inst.tag:32s}  {inst.cycles:6d}  {lv:8s}  {tr}"
                )
                for diff in inst.liveouts:
                    marker = "==" if diff.ok else "!="
                    lines.append(
                        f"      liveout[{diff.liveout_id}]  oracle "
                        f"0x{diff.oracle_bits:016x} {marker} rtl "
                        f"0x{diff.rtl_bits:016x}"
                    )
                if inst.traffic_diff:
                    lines.append(f"      traffic: {inst.traffic_diff}")
            lines.append(
                f"  memory image: "
                f"{'bit-identical' if rnd.memory_diff is None else rnd.memory_diff}"
            )
            if rnd.queue_diff:
                lines.append(f"  leftover tokens: {rnd.queue_diff}")
        verdict = (
            "OK - liveouts and memory bit-identical to the interpreter oracle"
            if self.ok else "MISMATCH - see diffs above"
        )
        lines.append(f"final: {verdict}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def run_rtl_cosim(
    spec: KernelSpec | str,
    policy: str = "p1",
    n_workers: int = 2,
    fifo_depth: int = 16,
    setup_args: list[int] | None = None,
    max_cycles: int = DEFAULT_COSIM_MAX_CYCLES,
    emit_dir=None,
) -> CosimReport:
    """Co-simulate every worker module of a kernel against the oracle.

    ``setup_args`` overrides the kernel's workload size (defaults to the
    :data:`SMOKE_SETUP_ARGS` scale-down, falling back to the spec's
    paper-scale arguments).  ``emit_dir`` optionally writes each round's
    Verilog modules plus oracle-scripted testbenches.
    """
    if isinstance(spec, str):
        try:
            spec = KERNELS_BY_NAME[spec]
        except KeyError:
            raise CgpaError(
                f"unknown kernel {spec!r} (have: "
                f"{', '.join(sorted(KERNELS_BY_NAME))})"
            ) from None
    try:
        policy_enum = ReplicationPolicy[policy.upper()]
    except KeyError:
        raise CgpaError(f"unknown policy {policy!r} (p1/p2/none)") from None
    if policy_enum is ReplicationPolicy.P2 and not spec.supports_p2:
        raise CgpaError(f"kernel {spec.name} does not support P2")
    if setup_args is None:
        setup_args = SMOKE_SETUP_ARGS.get(spec.name, list(spec.setup_args))

    compiled = compile_kernel(spec, policy_enum, n_workers)

    # ---------------------------------------------------------- oracle run
    memory, globals_, args = interned_workload(
        compiled.module, replace(spec, setup_args=setup_args)
    )

    oracle_result, _, handler = run_transformed(
        compiled.module, spec.measure_entry, args, memory,
        global_addresses=globals_,
    )

    # ------------------------------------------------------------ RTL runs
    n_channels = {
        ch.channel_id: ch.n_channels for ch in compiled.result.channels
    }
    chan_width = _channel_widths(compiled.module)
    liveout_width = _liveout_widths(compiled.module)
    # Emitted modules leave global addresses as parameters ("filled at
    # integration"); fill them with the oracle's placement.
    global_params = {
        f"GLOBAL_{_sanitize(name).upper()}": addr
        for name, addr in globals_.items()
    }
    designs: dict[int, object] = {}
    report = CosimReport(
        kernel=spec.name,
        policy=policy_enum.name.lower(),
        n_workers=n_workers,
        fifo_depth=fifo_depth,
        setup_args=list(setup_args),
        oracle_result=oracle_result,
    )
    for index, record in enumerate(handler.rounds):
        report.rounds.append(
            _run_round(
                index, record, designs, n_channels, chan_width,
                liveout_width, fifo_depth, max_cycles, emit_dir,
                global_params,
            )
        )
    return report


def _run_round(
    index: int,
    record: RoundRecord,
    designs: dict,
    n_channels: dict[int, int],
    chan_width: dict[int, int],
    liveout_width: dict[int, int],
    fifo_depth: int,
    max_cycles: int,
    emit_dir,
    global_params: dict[str, int],
) -> RoundReport:
    shared = _RoundShared(
        memory=record.start_mem,
        n_channels=n_channels,
        fifo_depth=fifo_depth,
        liveouts={
            lid: value_to_bits(v, liveout_width.get(lid, 64))
            for lid, v in record.liveouts_start.items()
        },
    )
    for (cid, idx), values in record.queue_start.items():
        shared.queue(cid, idx).extend(
            value_to_bits(v, chan_width.get(cid, 64)) for v in values
        )

    instances = []
    for run in record.runs:
        key = id(run.task)
        if key not in designs:
            for inst in run.task.instructions():
                if isinstance(inst, Alloca):
                    raise VsimRuntimeError(
                        f"{run.task.name}: alloca scratchpads are not "
                        "supported in co-simulation"
                    )
            text = generate_verilog_hierarchy(run.task)
            designs[key] = (text, elaborate(text, params=global_params))
        instances.append(_RtlInstance(run, designs[key][1], shared))

    if emit_dir is not None:
        _emit_artifacts(emit_dir, index, record, designs, chan_width,
                        liveout_width)

    # Reset, then pulse start into every instance simultaneously.
    for inst in instances:
        inst.sim.poke("rst", 1)
    for inst in instances:
        inst.sim.step()
    for inst in instances:
        inst.sim.poke("rst", 0)
        inst.sim.poke("start", 1)
    for inst in instances:
        inst.sim.step()
    for inst in instances:
        inst.sim.poke("start", 0)

    cycle = 0
    while any(not inst.finished for inst in instances):
        if cycle >= max_cycles:
            stuck = [i.tag for i in instances if not i.finished]
            raise VsimRuntimeError(
                f"round {index}: cycle budget ({max_cycles}) exceeded; "
                f"unfinished: {', '.join(stuck)}"
            )
        for inst in instances:
            inst.drive()
        for inst in instances:
            inst.sim.step()
        cycle += 1
        for inst in instances:
            inst.post_edge(cycle)

    round_report = RoundReport(index=index, loop_id=record.loop_id)
    for inst in instances:
        round_report.instances.append(
            _instance_report(inst, record, chan_width, liveout_width)
        )
    round_report.memory_diff = _memory_diff(record.end_mem, shared.memory)
    round_report.queue_diff = _queue_diff(record, shared, chan_width)
    return round_report


def _instance_report(
    inst: _RtlInstance,
    record: RoundRecord,
    chan_width: dict[int, int],
    liveout_width: dict[int, int],
) -> InstanceReport:
    report = InstanceReport(tag=inst.tag, cycles=inst.finish_cycle or 0)
    pushes, pops, liveouts = _expected(record, inst.tag, chan_width, liveout_width)
    report.traffic_diff = _sequence_diff(
        "push", pushes, inst.push_seen
    ) or _sequence_diff("pop", pops, inst.pop_seen)
    for lid in sorted(liveouts):
        report.liveouts.append(
            LiveoutDiff(
                liveout_id=lid,
                oracle_bits=liveouts[lid],
                rtl_bits=inst.sim.peek(f"liveout_{lid}"),
            )
        )
    return report


def _expected(
    record: RoundRecord,
    tag: str,
    chan_width: dict[int, int],
    liveout_width: dict[int, int],
) -> tuple[list, list, dict[int, int]]:
    """What the oracle's round says instance ``tag`` does, in bits:
    ``(pushes, pops, liveouts)``, the FIFO traffic as ``(channel, select,
    bits)`` in order (a broadcast push selects ``_BROADCAST_SEL``) and
    each live-out's last stored value."""
    pushes = [
        (cid, _BROADCAST_SEL if idx == BROADCAST_INDEX else idx,
         value_to_bits(v, chan_width.get(cid, 64)))
        for t, cid, idx, v in record.push_log
        if t == tag
    ]
    pops = [
        (cid, idx, value_to_bits(v, chan_width.get(cid, 64)))
        for t, cid, idx, v in record.pop_log
        if t == tag
    ]
    liveouts = {
        lid: value_to_bits(value, liveout_width.get(lid, 64))
        for t, lid, value in record.liveout_log
        if t == tag
    }
    return pushes, pops, liveouts


def _sequence_diff(kind: str, expected: list, actual: list) -> str | None:
    for i, (exp, act) in enumerate(zip(expected, actual)):
        if exp != act:
            return (
                f"{kind} #{i}: oracle (ch {exp[0]}, idx {exp[1]}, "
                f"0x{exp[2]:016x}) != rtl (ch {act[0]}, idx {act[1]}, "
                f"0x{act[2]:016x})"
            )
    if len(expected) != len(actual):
        return (
            f"{kind} count: oracle {len(expected)} != rtl {len(actual)}"
        )
    return None


def _memory_diff(oracle: Memory, rtl: Memory) -> str | None:
    a, b = oracle.snapshot(), rtl.snapshot()
    if a == b:
        return None
    if len(a) != len(b):
        return f"image sizes differ (oracle {len(a)}, rtl {len(b)} bytes)"
    first = next(i for i in range(len(a)) if a[i] != b[i])
    count = sum(1 for x, y in zip(a, b) if x != y)
    return (
        f"{count} byte(s) differ, first at 0x{first:x} "
        f"(oracle 0x{a[first]:02x}, rtl 0x{b[first]:02x})"
    )


def _queue_diff(
    record: RoundRecord, shared: _RoundShared, chan_width: dict[int, int]
) -> str | None:
    oracle = {
        key: tuple(
            value_to_bits(v, chan_width.get(key[0], 64)) for v in values
        )
        for key, values in record.queue_end.items()
    }
    rtl = {
        key: tuple(values) for key, values in shared.queues.items() if values
    }
    if oracle == rtl:
        return None
    keys = sorted(set(oracle) | set(rtl))
    for key in keys:
        if oracle.get(key, ()) != rtl.get(key, ()):
            return (
                f"channel {key[0]} idx {key[1]}: oracle leaves "
                f"{len(oracle.get(key, ()))} token(s), rtl "
                f"{len(rtl.get(key, ()))}"
            )
    return "queue states differ"


def _channel_widths(module) -> dict[int, int]:
    widths: dict[int, int] = {}
    for function in module.functions.values():
        for inst in function.instructions():
            if isinstance(inst, (Produce, ProduceBroadcast)):
                widths.setdefault(
                    inst.channel.channel_id, _width(inst.value.type)
                )
    return widths


def _liveout_widths(module) -> dict[int, int]:
    widths: dict[int, int] = {}
    for function in module.functions.values():
        for inst in function.instructions():
            if isinstance(inst, StoreLiveout):
                widths.setdefault(inst.liveout_id, _width(inst.value.type))
    return widths


# --------------------------------------------------------------------------
# Testbench artifacts
# --------------------------------------------------------------------------


def testbench_scripts(
    record: RoundRecord,
    run: TaskRun,
    chan_width: dict[int, int],
    liveout_width: dict[int, int],
):
    """Oracle-derived testbench inputs for one instance of a round.

    Returns ``(arg_values, expected_liveouts, pop_script,
    expected_pushes)`` in the formats
    :func:`repro.rtl.testbench.generate_testbench` accepts.
    """
    arg_values = [
        value_to_bits(v, _width(a.type))
        for a, v in zip(run.task.args, run.args)
    ]
    pushes, pops, liveouts = _expected(record, run.tag, chan_width, liveout_width)
    pop_script = [((cid << 4) | idx, bits) for cid, idx, bits in pops]
    expected_pushes = [((cid << 4) | sel, bits) for cid, sel, bits in pushes]
    return arg_values, liveouts, pop_script, expected_pushes


def _emit_artifacts(
    emit_dir, index: int, record: RoundRecord, designs, chan_width,
    liveout_width,
) -> None:
    import os

    os.makedirs(emit_dir, exist_ok=True)
    for run in record.runs:
        text = designs[id(run.task)][0]
        base = f"round{index}_{run.tag.replace('@', '_')}"
        with open(os.path.join(emit_dir, base + ".v"), "w") as fh:
            fh.write(text)
        arg_values, liveouts, pops, pushes = testbench_scripts(
            record, run, chan_width, liveout_width
        )
        bench = generate_testbench(
            run.task,
            arg_values=arg_values,
            expected_liveouts=liveouts,
            pop_script=pops,
            expected_pushes=pushes,
        )
        with open(os.path.join(emit_dir, base + "_tb.v"), "w") as fh:
            fh.write(bench)
