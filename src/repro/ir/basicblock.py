"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..errors import IRError
from .instructions import Instruction, Phi
from .types import LABEL
from .values import Value

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


class BasicBlock(Value):
    """A basic block; it is a :class:`Value` of label type (branch target)."""

    def __init__(self, name: str = "") -> None:
        super().__init__(LABEL, name)
        self.parent: "Function | None" = None
        self.instructions: list[Instruction] = []

    # -- structure -----------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        if self.terminator is not None:
            raise IRError(f"appending to terminated block {self.name}")
        self.instructions.append(inst)
        inst.parent = self
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        self.instructions.insert(index, inst)
        inst.parent = self
        return inst

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def phis(self) -> list[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, Phi):
                return i
        return len(self.instructions)

    # -- graph ---------------------------------------------------------------

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        return term.successors()  # type: ignore[attr-defined]

    def predecessors(self) -> list["BasicBlock"]:
        """Blocks that branch to this one (derived from the use graph)."""
        preds = []
        for user in self.users:
            if user.is_terminator and user.parent is not None:
                if self in user.successors():  # type: ignore[attr-defined]
                    preds.append(user.parent)
        # Deduplicate preserving order; a condbr can target us on both arms.
        seen: set[int] = set()
        unique = []
        for p in preds:
            if id(p) not in seen:
                seen.add(id(p))
                unique.append(p)
        return unique

    def __iter__(self) -> Iterator[Instruction]:
        return iter(list(self.instructions))

    def short_name(self) -> str:
        return self.name or f"bb{id(self) & 0xFFFF:x}"

    def __repr__(self) -> str:
        return f"<BasicBlock {self.short_name()} ({len(self.instructions)} insts)>"
