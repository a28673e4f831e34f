"""Andersen-style points-to analysis (allocation-site abstraction).

Flow- and field-insensitive, context-insensitive, whole-module inclusion
analysis.  Abstract objects are ``malloc`` call sites, allocas and globals;
the site numbering matches the runtime numbering the interpreter records in
:class:`repro.interp.memory.Allocation`, so static and dynamic views line
up one-to-one in tests.

This is the analysis the paper leans on to prove, e.g., that the two em3d
linked lists are disjoint ("several static analysis algorithms can
determine that from and nodelist nodes are from different linked-lists and
disjoint from each other" — Section 3.3).  Functions never called inside
the module get their pointer formals bound to a distinguished *external*
object, keeping results conservative for open programs.

The analysis also derives per-function *mod/ref* summaries (which abstract
objects a call may read or write), used by the PDG builder to place call
instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..interp.interpreter import MALLOC_NAMES
from .addr import strip_constant_offsets
from ..ir.function import Function
from ..ir.instructions import (
    GEP,
    Alloca,
    Call,
    Cast,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable, Value


@dataclass(frozen=True)
class AbstractObject:
    """One abstract memory region."""

    kind: str  # 'malloc' | 'alloca' | 'global' | 'external'
    index: int  # malloc site id / sequence number
    name: str = ""

    def __repr__(self) -> str:
        return f"<obj {self.kind}:{self.index} {self.name}>"


#: The unknown region external pointers may reference.
EXTERNAL = AbstractObject("external", -1, "external")


@dataclass
class ModRefSummary:
    """Objects a function may read (ref) or write (mod), transitively."""

    mod: frozenset[AbstractObject] = frozenset()
    ref: frozenset[AbstractObject] = frozenset()


class PointsTo:
    """Results of the inclusion-based points-to analysis."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._pts: dict[int, set[AbstractObject]] = {}
        #: Field-sensitive heap edges: (object, byte offset) -> pointees.
        #: Offset None is the "unknown field" bucket (variable-indexed
        #: stores land there; reads at any offset include it).
        self._heap: dict[tuple[AbstractObject, int | None], set[AbstractObject]] = {}
        self._site_of_call: dict[int, int] = {}
        self._global_objs: dict[str, AbstractObject] = {}
        self.modref: dict[str, ModRefSummary] = {}
        self._solve()
        self._compute_modref()

    # -- public queries ----------------------------------------------------------

    def points_to(self, value: Value) -> frozenset[AbstractObject]:
        """Abstract objects ``value`` may point to."""
        if isinstance(value, GlobalVariable):
            return frozenset({self._global_objs[value.name]})
        if isinstance(value, Constant):
            return frozenset()  # null or integer constant
        return frozenset(self._pts.get(id(value), set()))

    def may_alias(self, a: Value, b: Value) -> bool:
        """May the two pointer values reference overlapping memory?"""
        pa, pb = self.points_to(a), self.points_to(b)
        if not pa or not pb:
            # Unknown pointer (e.g. loaded integer cast): be conservative.
            return True
        if EXTERNAL in pa or EXTERNAL in pb:
            return True
        return bool(pa & pb)

    # -- constraint generation ------------------------------------------------------

    def _pts_of(self, value: Value) -> set[AbstractObject]:
        return self._pts.setdefault(id(value), set())

    def _heap_slot(self, obj: AbstractObject, offset: int | None) -> set[AbstractObject]:
        return self._heap.setdefault((obj, offset), set())

    def _heap_read(self, obj: AbstractObject, offset: int | None) -> set[AbstractObject]:
        """Pointees a load at ``offset`` of ``obj`` may observe."""
        if offset is None:
            result: set[AbstractObject] = set()
            for (o, _), pointees in self._heap.items():
                if o == obj:
                    result |= pointees
            return result
        return self._heap_slot(obj, offset) | self._heap.get((obj, None), set())

    def _solve(self) -> None:
        module = self.module
        # Number malloc sites identically to the interpreter.
        counter = 0
        for function in module.functions.values():
            for inst in function.instructions():
                if isinstance(inst, Call) and inst.callee.name in MALLOC_NAMES:
                    self._site_of_call[id(inst)] = counter
                    counter += 1
        for i, g in enumerate(module.globals.values()):
            self._global_objs[g.name] = AbstractObject("global", i, g.name)

        called: set[str] = set()
        for function in module.functions.values():
            for inst in function.instructions():
                if isinstance(inst, Call):
                    called.add(inst.callee.name)

        copy_edges: dict[int, list[Value]] = {}  # id(dst value) <- [src values]
        loads: list[Load] = []
        stores: list[Store] = []
        calls: list[Call] = []
        rets: dict[str, list[Value]] = {}

        def add_copy(dst: Value, src: Value) -> None:
            copy_edges.setdefault(id(dst), []).append(src)

        for function in module.functions.values():
            # External entry points: pointer formals may reference anything.
            if not function.is_declaration and function.name not in called:
                for arg in function.args:
                    if arg.type.is_pointer:
                        self._pts_of(arg).add(EXTERNAL)
                        self._heap_slot(EXTERNAL, None).add(EXTERNAL)
            for inst in function.instructions():
                if isinstance(inst, Alloca):
                    self._pts_of(inst).add(
                        AbstractObject("alloca", id(inst) & 0x7FFFFFFF, inst.name)
                    )
                elif isinstance(inst, GEP):
                    add_copy(inst, inst.operands[0])
                elif isinstance(inst, Cast):
                    # Pointers laundered through integers (ptrtoint stored
                    # into an int slot, loaded back, inttoptr) keep their
                    # points-to sets: casts copy unconditionally.
                    if inst.operands:
                        add_copy(inst, inst.operands[0])
                elif isinstance(inst, (Phi, Select)):
                    sources = (
                        inst.operands[1:]
                        if isinstance(inst, Select)
                        else inst.operands
                    )
                    for op in sources:
                        add_copy(inst, op)
                elif isinstance(inst, Load):
                    loads.append(inst)
                elif isinstance(inst, Store):
                    stores.append(inst)
                elif isinstance(inst, Call):
                    calls.append(inst)
                    if inst.callee.name in MALLOC_NAMES:
                        site = self._site_of_call[id(inst)]
                        self._pts_of(inst).add(AbstractObject("malloc", site))
                    elif not inst.callee.is_declaration:
                        for formal, actual in zip(inst.callee.args, inst.args):
                            add_copy(formal, actual)
                elif isinstance(inst, Ret) and inst.value is not None:
                    if function.name:
                        rets.setdefault(function.name, []).append(inst.value)

        # Call results copy from callee returns.
        for call in calls:
            if call.callee.name not in MALLOC_NAMES:
                for ret_value in rets.get(call.callee.name, []):
                    copy_edges.setdefault(id(call), []).append(ret_value)

        # Fixed-point iteration (simple but robust for kernel-sized modules).
        changed = True
        while changed:
            changed = False
            for dst_id, sources in copy_edges.items():
                bucket = self._pts.setdefault(dst_id, set())
                before = len(bucket)
                for src in sources:
                    bucket |= self.points_to(src)
                changed |= len(bucket) != before
            for load in loads:
                root, offset = strip_constant_offsets(load.pointer)
                bucket = self._pts_of(load)
                before = len(bucket)
                for obj in self.points_to(root):
                    bucket |= self._heap_read(obj, offset)
                changed |= len(bucket) != before
            for store in stores:
                value_pts = self.points_to(store.value)
                if not value_pts:
                    continue
                root, offset = strip_constant_offsets(store.pointer)
                for obj in self.points_to(root):
                    heap = self._heap_slot(obj, offset)
                    before = len(heap)
                    heap |= value_pts
                    changed |= len(heap) != before

    # -- mod/ref -----------------------------------------------------------------------

    def _compute_modref(self) -> None:
        # Direct effects per function.
        direct_mod: dict[str, set[AbstractObject]] = {}
        direct_ref: dict[str, set[AbstractObject]] = {}
        callees: dict[str, set[str]] = {}
        for function in self.module.functions.values():
            mod: set[AbstractObject] = set()
            ref: set[AbstractObject] = set()
            callees[function.name] = set()
            for inst in function.instructions():
                if isinstance(inst, Load):
                    ref |= self.points_to(inst.pointer) or {EXTERNAL}
                elif isinstance(inst, Store):
                    mod |= self.points_to(inst.pointer) or {EXTERNAL}
                elif isinstance(inst, Call):
                    if inst.callee.name not in MALLOC_NAMES:
                        callees[function.name].add(inst.callee.name)
                    if inst.callee.is_declaration and inst.callee.name not in MALLOC_NAMES:
                        mod.add(EXTERNAL)
                        ref.add(EXTERNAL)
            direct_mod[function.name] = mod
            direct_ref[function.name] = ref

        # Transitive closure over the (possibly recursive) call graph.
        changed = True
        while changed:
            changed = False
            for name, callee_names in callees.items():
                for callee in callee_names:
                    if callee not in direct_mod:
                        continue
                    before = len(direct_mod[name]) + len(direct_ref[name])
                    direct_mod[name] |= direct_mod[callee]
                    direct_ref[name] |= direct_ref[callee]
                    changed |= (
                        len(direct_mod[name]) + len(direct_ref[name]) != before
                    )

        for name in direct_mod:
            self.modref[name] = ModRefSummary(
                mod=frozenset(direct_mod[name]), ref=frozenset(direct_ref[name])
            )

    def call_mod(self, call: Call) -> frozenset[AbstractObject]:
        if call.callee.name in MALLOC_NAMES:
            return frozenset()
        summary = self.modref.get(call.callee.name)
        return summary.mod if summary else frozenset({EXTERNAL})

    def call_ref(self, call: Call) -> frozenset[AbstractObject]:
        if call.callee.name in MALLOC_NAMES:
            return frozenset()
        summary = self.modref.get(call.callee.name)
        return summary.ref if summary else frozenset({EXTERNAL})
