"""Core value classes: the SSA value graph.

Every operand of an instruction is a :class:`Value`.  Values track their
users so transforms (DCE, mem2reg, pipeline task extraction) can rewrite
the graph with :meth:`Value.replace_all_uses_with`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .types import Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .instructions import Instruction


class Value:
    """Anything that can appear as an instruction operand."""

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name
        # Users are instructions; a user appears once even if it uses this
        # value in several operand slots (the count lives in its operand
        # list).  An insertion-ordered dict (values unused) keeps the
        # first-add iteration order and makes add and remove O(1).
        self._users: dict["Instruction", None] = {}

    @property
    def users(self) -> list["Instruction"]:
        """Instructions currently using this value (deterministic order)."""
        return list(self._users)

    def add_user(self, user: "Instruction") -> None:
        self._users.setdefault(user)

    def remove_user(self, user: "Instruction") -> None:
        # Only drop the user when it no longer references this value in any
        # operand slot (it may use the same value twice, e.g. add x, x).
        if user in self._users and self not in user.operands:
            del self._users[user]

    def replace_all_uses_with(self, replacement: "Value") -> None:
        """Rewrite every user to use ``replacement`` instead of ``self``."""
        if replacement is self:
            return
        for user in self.users:
            user.replace_operand(self, replacement)

    def short_name(self) -> str:
        """A compact printable handle, used by the IR printer."""
        return f"%{self.name}" if self.name else f"%v{id(self) & 0xFFFF:x}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short_name()}: {self.type!r}>"


class Constant(Value):
    """A compile-time constant (integer, float, or null pointer)."""

    def __init__(self, type_: Type, value: int | float) -> None:
        super().__init__(type_)
        self.value = value

    def short_name(self) -> str:
        if self.type.is_pointer and self.value == 0:
            return "null"
        if self.type.is_float:
            return repr(float(self.value))
        return str(int(self.value))

    def __repr__(self) -> str:
        return f"<Constant {self.short_name()}: {self.type!r}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_: Type, name: str, index: int) -> None:
        super().__init__(type_, name)
        self.index = index

    def short_name(self) -> str:
        return f"%{self.name or f'arg{self.index}'}"


class GlobalVariable(Value):
    """A module-level variable.

    The value's type is a *pointer* to ``value_type`` (as in LLVM): loads
    and stores go through it.  The interpreter assigns each global a fixed
    address in the memory image; ``initializer`` is a flat list of scalar
    values laid out in memory order, or ``None`` for zero-fill.
    """

    def __init__(
        self,
        value_type: Type,
        name: str,
        initializer: list[int | float] | None = None,
    ) -> None:
        from .types import PointerType

        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer

    def short_name(self) -> str:
        return f"@{self.name}"
