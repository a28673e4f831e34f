"""Kernel specifications: the benchmark contract used by the harness.

Each of the paper's five kernels (Table 2) is described by a
:class:`KernelSpec`: its C source (setup + kernel + checksum), which
function CGPA accelerates, which function the harness times, the region
shape facts its workload guarantees, and the stage shapes Table 2 reports.

Kernel arguments cross from the setup phase to the timed phase through the
``kargs`` global array (setup stores them; the harness reads them out of
the memory image) so every backend — MIPS model, LegUp-style single FSM,
CGPA pipeline — is invoked with bit-identical inputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

from ..analysis.shapes import RegionShapes, Shape

#: Name of the global C array kernels use to publish their arguments.
KARGS_GLOBAL = "kargs"


def workload_rng(seed: int):
    """Deterministic RNG for Python-side workload generators.

    ``random.Random`` (Mersenne Twister) is specified to produce the same
    sequence for the same seed on every platform, Python version and
    process — the property the fleet/DSE byte-identity guarantees lean
    on.  The seed is pre-mixed so small consecutive seeds land in
    well-separated generator states.
    """
    import random

    return random.Random((seed * 0x9E3779B1 + 0x6D2B79F5) & 0xFFFFFFFF)

#: Deterministic LCG shared by all kernel setup codes (compiled C).
RNG_SOURCE = """
int rng_state = 12345;
int rnd(void) {
    rng_state = rng_state * 1103515245 + 12345;
    return (rng_state >> 16) & 0x7fff;
}
"""


@dataclass
class PaperNumbers:
    """What the paper reports for this kernel (Fig. 4 and Table 3)."""

    speedup_legup: float  # over the MIPS core (read off Fig. 4)
    speedup_cgpa: float  # over the MIPS core
    legup_aluts: int
    cgpa_aluts: int
    legup_power_mw: float
    cgpa_power_mw: float
    legup_energy_uj: float
    cgpa_energy_uj: float
    cgpa_p2_aluts: int | None = None
    cgpa_p2_energy_uj: float | None = None


@dataclass
class KernelSpec:
    """Everything the harness needs to compile, run and score one kernel."""

    name: str
    domain: str
    description: str
    source: str
    accel_function: str
    measure_entry: str
    setup_function: str
    setup_args: list[int]
    n_kernel_args: int
    check_function: str
    expected_p1: str  # Table 2 stage shape under P1
    expected_p2: str | None  # Table 2 P2 column (None = "not applicable")
    #: Sites (by index among the module's malloc sites) with list shape;
    #: "all" declares every site an acyclic list (workloads guarantee it).
    list_shape_sites: str | list[int] = "all"
    paper: PaperNumbers | None = None
    #: Seeded synthetic workload generator: ``seed -> setup_args``.  Every
    #: kernel ships one so DSE sweeps, fault campaigns and the conformance
    #: suite can draw *meaningfully different* input footprints (graph /
    #: table / matrix shapes) that are still deterministic per seed —
    #: ``workload_generator(s)`` must return the same list on every call,
    #: in every process (guarded by the determinism tests).
    workload_generator: Callable[[int], list[int]] | None = None

    @property
    def supports_p2(self) -> bool:
        return self.expected_p2 is not None

    def key_fields(self) -> dict:
        """What a content key hashes of this kernel: its source and its
        entry-point contract (the DSE result cache and the service's job
        keys both splice this into their payload)."""
        return {
            "kernel": self.name,
            "source": self.source,
            "accel_function": self.accel_function,
            "measure_entry": self.measure_entry,
            "setup_function": self.setup_function,
            "setup_args": list(self.setup_args),
            "check_function": self.check_function,
        }

    def workload_args(self, seed: int) -> list[int]:
        """Setup arguments for the seeded synthetic workload ``seed``.

        Falls back to the fixed paper-scale :attr:`setup_args` when the
        kernel declares no generator (seed 0 is pinned to the defaults
        for every kernel, so ``workload_args(0)`` is always the shipped
        baseline footprint).
        """
        if self.workload_generator is None or seed == 0:
            return list(self.setup_args)
        return list(self.workload_generator(seed))

    def with_workload(self, seed: int) -> "KernelSpec":
        """A derived spec whose ``setup_args`` are the seeded workload.

        The derived spec flows through every backend unchanged — the
        harness, DSE evaluator, fault sweeps and co-simulation all read
        ``setup_args``, so one ``spec.with_workload(seed)`` call retargets
        the whole verification matrix at a different input footprint.
        """
        return dataclasses.replace(self, setup_args=self.workload_args(seed))

    def shapes_for(self, module) -> RegionShapes:
        """Region shape declarations for this kernel's workload.

        Stands in for the Ghiya–Hendren shape analysis the paper cites:
        the setup code builds only acyclic structures, and this is where
        that guarantee is handed to the dependence analysis.
        """
        from ..interp import malloc_site_table

        shapes = RegionShapes()
        sites = malloc_site_table(module)
        if self.list_shape_sites == "all":
            chosen = list(sites)
        else:
            chosen = [s for s in self.list_shape_sites if s in sites]
        for site in chosen:
            shapes.declare(site, Shape.LIST)
        return shapes
