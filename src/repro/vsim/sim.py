"""Cycle-level simulation of an elaborated design.

Two-state (0/1) semantics: every signal starts at 0, there is no X/Z.
The state is one ``int`` per signal slot, and the continuous assigns are
settled after every change, so ``peek`` reads settled values:

* :meth:`Simulation.poke` of a new value settles only what the signal
  reaches (its own driver first, so a poked driven net keeps the
  driver's value); a poke of the value the signal holds does nothing,
* one :meth:`Simulation.step` models one rising clock edge: every
  ``always @(posedge ...)`` block evaluates against the pre-edge state,
  writing into a nonblocking-assignment buffer (last write wins,
  matching NBA semantics), the buffer commits, masked to each signal's
  width, and what the blocks assign settles.

Both run functions the design rendered once (:mod:`.elaborate`).  The
single-clock assumption matches the emitter: every always block is
clocked by the module's ``clk`` input, so all blocks fire on each step.
"""

from __future__ import annotations

from .elaborate import Design
from .errors import VsimRuntimeError


class Simulation:
    """Drive an elaborated :class:`Design` cycle by cycle."""

    def __init__(self, design: Design) -> None:
        self.design = design
        self.state: list[int] = [0] * len(design.signals)
        self.cycle = 0
        self._slots = {name: sig.slot for name, sig in design.signals.items()}
        design.cone(None)(self.state)

    # ----------------------------------------------------------- interface

    def poke(self, name: str, value: int) -> None:
        """Drive a top-level input (or force any signal) for the next edge."""
        sig = self.design.signals.get(name)
        if sig is None:
            raise VsimRuntimeError(f"poke of unknown signal {name!r}")
        value &= (1 << sig.width) - 1
        if self.state[sig.slot] != value:
            self.state[sig.slot] = value
            self.design.cone(sig.slot)(self.state)

    def peek(self, name: str) -> int:
        try:
            return self.state[self._slots[name]]
        except KeyError:
            raise VsimRuntimeError(f"peek of unknown signal {name!r}") from None

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` rising edges."""
        edge, state = self.design.edge, self.state
        for _ in range(cycles):
            edge(state)
            self.cycle += 1
