"""The shared base of the C front end's AST and IR node classes.

:mod:`repro.cfront.ast` and :mod:`repro.cfront.ir` define dozens of
small node classes, and every process that reads C defines them all.
As ``@dataclass``es each one costs about a millisecond to define (the
generated methods are compiled per class); as plain ``__slots__``
classes, about a hundredth of that.  :class:`Node` gives a plain class
what the dataclasses gave it, read off its ``__slots__`` (its fields,
in constructor order): field-wise ``==``, ``repr`` and pickling.
:class:`FrozenNode` adds immutability and a field-wise ``hash``.

Each node class writes its own ``__init__``; a frozen one sets its
fields through :data:`init_field` (``object.__setattr__``), as a frozen
dataclass's generated ``__init__`` does.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter

#: how a frozen node's ``__init__`` sets a field
init_field = object.__setattr__


class Node:
    """A node whose ``__slots__`` are its fields, in constructor order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # the fields' values in one C call: a tuple, or the value
            # itself for a one-field class
            cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class FrozenNode(Node):
    """An immutable, hashable :class:`Node`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
