"""Syntactic values of the restricted language (paper Figure 10).

``v ::= n | l | {n} | {l + n}`` — C integers, C locations, OCaml integers
(unboxed values with the low bit conceptually set), and OCaml locations (a
pointer into the OCaml heap at base ``l`` and word offset ``n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class CIntVal:
    """A C integer ``n``."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CLoc:
    """A C location ``l`` (an abstract address in the C store)."""

    address: int

    def __str__(self) -> str:
        return f"l{self.address}"


@dataclass(frozen=True)
class MLInt:
    """An OCaml unboxed value ``{n}`` — an int or a nullary constructor."""

    value: int

    def __str__(self) -> str:
        return f"{{{self.value}}}"


@dataclass(frozen=True)
class MLLoc:
    """An OCaml heap pointer ``{l + n}``: block base ``l``, offset ``n``."""

    base: int
    offset: int = 0

    def shifted(self, delta: int) -> "MLLoc":
        return MLLoc(self.base, self.offset + delta)

    def __str__(self) -> str:
        return f"{{l{self.base} + {self.offset}}}"


Value = Union[CIntVal, CLoc, MLInt, MLLoc]
