"""Pure-Python simulator for the emitter's synthesizable Verilog subset.

``repro.rtl.verilog`` emits a small, regular Verilog dialect: module/port
declarations, ``reg``/``wire`` nets with constant widths, continuous
assigns, single-clock ``always @(posedge clk)`` blocks with nonblocking
assignments, ``case``-based FSMs, and arithmetic/compare/mux expressions.
This package closes the emit→execute loop for that subset without any
external toolchain:

* :mod:`repro.vsim.lexer` — one compiled scanner for the subset's tokens.
* :mod:`repro.vsim.parser` — recursive-descent parser for the subset
  grammar, precedence climbing over one operator table for expressions
  (``VsimParseError`` on anything outside the subset).
* :mod:`repro.vsim.elaborate` — flattens a module hierarchy (parameter
  substitution, dotted instance prefixes) into a :class:`Design` of
  two-state signals, topologically ordered combinational assigns and one
  rendered edge function for the sequential blocks.
* :mod:`repro.vsim.sim` — :class:`Simulation`: ``poke``/``peek``/``step``
  cycle-level execution with nonblocking-assignment semantics; a poke
  settles only the assigns it reaches.
* :mod:`repro.vsim.intrinsics` — bit-exact IEEE-754 models for the
  ``fp_*`` vendor-IP cores the emitter instantiates as function calls.
* :mod:`repro.vsim.lint` — structural checks (undeclared identifiers,
  width mismatches, FSM case coverage, multiply-driven nets).
* :mod:`repro.vsim.cosim` — differential co-simulation of every emitted
  worker module against the :mod:`repro.interp` oracle.
"""

from .elaborate import Design, elaborate
from .errors import VsimElabError, VsimError, VsimParseError, VsimRuntimeError
from .lint import lint_verilog
from .parser import parse_verilog
from .sim import Simulation

__all__ = [
    "Design",
    "Simulation",
    "VsimElabError",
    "VsimError",
    "VsimParseError",
    "VsimRuntimeError",
    "elaborate",
    "lint_verilog",
    "parse_verilog",
]
