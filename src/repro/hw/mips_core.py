"""MIPS soft-core baseline cost model (the paper's CPU data point).

An in-order, single-issue 32-bit soft core with a hardware FPU: every IR
instruction charges a base cost, taken branches pay a pipeline-flush
penalty, and every data access goes through the same direct-mapped D-cache
model the accelerators use.  The instruction cache is assumed to always
hit (the kernels are small loops, and the paper's I-cache has 512 lines of
128 B — far larger than any kernel).

Every cost is static, so the model is a table: the interpreter renders
each instruction's cycles into the program of each function it runs
(``Interpreter(..., costs=)``), and :class:`_TracingMemory` advances the
same counter by what the cache charges for each access, at the cycle the
instructions before it reached.  Values are computed by the functional interpreter; this module
only adds up cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp.interpreter import Interpreter
from ..interp.memory import Memory
from ..ir.function import Function
from ..ir.instructions import (
    GEP,
    BinaryOp,
    Call,
    Cast,
    CondBranch,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Store,
)
from ..ir.module import Module
from .cache import DirectMappedCache

#: Base cycles per IR op on the soft core (excluding cache time).
#:
#: Calibrated against the paper's Fig. 4 baseline: the Tiger-MIPS-class
#: soft core LegUp systems use is single-issue, in-order, with no result
#: forwarding on multi-cycle units and a multi-cycle soft FPU, which is
#: why plain HLS already beats it by ~1.85x geomean.
_MIPS_BINOP_CYCLES = {
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "shl": 1,
    "ashr": 1, "lshr": 1,
    "mul": 4, "sdiv": 24, "udiv": 24, "srem": 24, "urem": 24,
    "fadd": 7, "fsub": 7, "fmul": 9, "fdiv": 32,
}
_TAKEN_BRANCH_PENALTY = 3  # fetch bubble on every taken control transfer
_CALL_OVERHEAD = 5  # jal + argument moves + prologue


def _base_cost(inst: Instruction) -> int:
    if isinstance(inst, BinaryOp):
        return _MIPS_BINOP_CYCLES[inst.opcode]
    if isinstance(inst, (Load, Store)):
        return 2  # address generation + issue; cache time added separately
    if isinstance(inst, GEP):
        # Address arithmetic: shift/multiply plus add per index level
        # (the accelerator does the same in one fused address unit).
        return 1 + len(inst.indices)
    if isinstance(inst, (Jump, CondBranch)):
        return 1
    if isinstance(inst, Call):
        return _CALL_OVERHEAD
    if isinstance(inst, Ret):
        return 3
    if isinstance(inst, Phi):
        return 1  # the register moves the compiler places on the edges
    if isinstance(inst, Cast):
        return 3 if inst.opcode in ("sitofp", "fptosi") else 1
    return 1


def _costs(module: Module) -> dict[Instruction, int]:
    """Cycles each instruction of ``module`` costs.  A branch always takes
    an edge, so it carries the taken-branch penalty."""
    return {
        inst: _base_cost(inst)
        + (_TAKEN_BRANCH_PENALTY if isinstance(inst, (Jump, CondBranch)) else 0)
        for function in module.functions.values()
        for inst in function.instructions()
    }


@dataclass
class MipsResult:
    """Cycles, instruction count and result of one soft-core run."""

    cycles: int
    instructions: int
    return_value: int | float | None
    cache: DirectMappedCache


class _TracingMemory(Memory):
    """Memory that charges a cache model for every access: the access
    starts at ``clock.cycles`` and the counter moves to when it is ready.
    The clock is the interpreter running on the image, or the image itself
    (from cycle 0) before there is one."""

    def __init__(self, base: Memory, cache: DirectMappedCache) -> None:
        # Share the underlying buffer: we *are* the same memory image.
        self.__dict__.update(base.__dict__)
        self.cache = cache
        self.cycles = 0
        self.clock: Interpreter | _TracingMemory = self

    def read_bytes(self, addr: int, size: int) -> bytes:
        clock = self.clock
        clock.cycles = self.cache.access(addr, False, clock.cycles)
        return Memory.read_bytes(self, addr, size)

    def write_bytes(self, addr: int, data: bytes) -> None:
        clock = self.clock
        clock.cycles = self.cache.access(addr, True, clock.cycles)
        Memory.write_bytes(self, addr, data)


def run_on_mips(
    module: Module,
    entry: str | Function,
    args: list[int | float],
    memory: Memory,
    cache: DirectMappedCache | None = None,
    global_addresses: dict[str, int] | None = None,
) -> MipsResult:
    """Execute ``entry`` on the soft-core model; returns cycles and result."""
    cache = cache if cache is not None else DirectMappedCache(ports=1)
    traced = _TracingMemory(memory, cache)
    interp = Interpreter(
        module, traced, global_addresses=global_addresses, costs=_costs(module)
    )
    interp.cycles = traced.cycles  # placing initialised globals writes
    traced.clock = interp
    try:
        value = interp.call(entry, args)
    finally:
        traced.clock = traced  # the image must not hold its interpreter
    return MipsResult(
        cycles=interp.cycles,
        instructions=interp.steps + interp.moves,
        return_value=value,
        cache=cache,
    )
