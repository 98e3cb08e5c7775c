"""The multi-lingual type language of paper Figure 3.

C types ``ct`` embed extended OCaml types ``mt`` at ``value``; OCaml types
embed C types back via ``ct custom``.  OCaml structured data is modelled by
*representational types* ``(Ψ, Σ)``:

* ``Ψ`` bounds the unboxed values — an exact nullary-constructor count
  ``n``, the unconstrained ``⊤`` (any integer), or a variable ``ψ``;
* ``Σ`` is a *row* of products ``Π``, one per non-nullary constructor, in
  tag order; rows may end in a row variable ``σ`` so sums can grow during
  inference (likewise ``Π`` rows of element types may end in ``π``).

Function types carry a garbage-collection effect ``γ | gc | nogc``.

All terms are immutable; inference variables are bound through the
union-find substitution kept by :class:`repro.core.unify.Unifier`.

Structural constructors are hash-consed via
:class:`repro.core.intern.InternedMeta`, so structurally equal terms are
identical objects and the unifier's ``a is b`` fast path fires on them.
The variable classes (``eq=False``) are identity-keyed and never
interned; ``CValue``/``CFun`` almost always embed fresh variables, so
they are plain (slotted) constructors — interning them would only miss.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from .intern import InternedMeta
from typing import Iterator, Optional, Sequence, Tuple, Union

_COUNTER = itertools.count()


def _next_id() -> int:
    return next(_COUNTER)


# ---------------------------------------------------------------------------
# GC effects
# ---------------------------------------------------------------------------


class GCConst(enum.Enum):
    """The two-point effect lattice ``nogc ⊑ gc``."""

    NOGC = "nogc"
    GC = "gc"

    def leq(self, other: "GCConst") -> bool:
        return self is GCConst.NOGC or other is GCConst.GC

    def __str__(self) -> str:
        return self.value


NOGC = GCConst.NOGC
GC = GCConst.GC


@dataclass(frozen=True, eq=False, slots=True)
class GCVar:
    """An effect variable ``γ``; solved by reachability (paper §3.3.3)."""

    name: str = ""
    id: int = field(default_factory=_next_id)

    def __str__(self) -> str:
        return self.name or f"γ{self.id}"


GCEffect = Union[GCConst, GCVar]


def fresh_gc(name: str = "") -> GCVar:
    return GCVar(name=name)


# ---------------------------------------------------------------------------
# Ψ — unboxed-value bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class PsiVar:
    """A variable ``ψ`` over nullary-constructor counts."""

    id: int = field(default_factory=_next_id)

    def __str__(self) -> str:
        return f"ψ{self.id}"


@dataclass(frozen=True)
class PsiConst(metaclass=InternedMeta):
    """An exact count ``n`` of nullary constructors."""

    count: int

    def __str__(self) -> str:
        return str(self.count)


class _PsiTop:
    """``⊤`` — the type's unboxed values may be any integer."""

    _instance: Optional["_PsiTop"] = None

    def __new__(cls) -> "_PsiTop":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "⊤"

    def __repr__(self) -> str:
        return "PSI_TOP"


PSI_TOP = _PsiTop()

Psi = Union[PsiVar, PsiConst, _PsiTop]


def fresh_psi() -> PsiVar:
    return PsiVar()


# ---------------------------------------------------------------------------
# Π — products (rows of element types)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class PiVar:
    """A product row variable ``π``."""

    id: int = field(default_factory=_next_id)

    def __str__(self) -> str:
        return f"π{self.id}"


@dataclass(frozen=True)
class Pi(metaclass=InternedMeta):
    """A product ``mt₀ × ... × mtₖ × tail`` (tail ``None`` means closed)."""

    elems: Tuple["MLType", ...] = ()
    tail: Optional[PiVar] = None

    @property
    def is_closed(self) -> bool:
        return self.tail is None

    def __str__(self) -> str:
        parts = [str(e) for e in self.elems]
        if self.tail is not None:
            parts.append(str(self.tail))
        if not parts:
            return "∅"
        return " × ".join(parts)


def fresh_pi_row() -> Pi:
    """An entirely unknown product: ``π`` alone."""
    return Pi(elems=(), tail=PiVar())


def closed_pi(elems: Sequence["MLType"]) -> Pi:
    return Pi(elems=tuple(elems), tail=None)


# ---------------------------------------------------------------------------
# Σ — sums (rows of products, in tag order)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class SigmaVar:
    """A sum row variable ``σ``."""

    id: int = field(default_factory=_next_id)

    def __str__(self) -> str:
        return f"σ{self.id}"


@dataclass(frozen=True)
class Sigma(metaclass=InternedMeta):
    """A sum ``Π₀ + ... + Πⱼ + tail`` (tail ``None`` means closed)."""

    prods: Tuple[Pi, ...] = ()
    tail: Optional[SigmaVar] = None

    @property
    def is_closed(self) -> bool:
        return self.tail is None

    def __str__(self) -> str:
        parts = [f"({p})" for p in self.prods]
        if self.tail is not None:
            parts.append(str(self.tail))
        if not parts:
            return "∅"
        return " + ".join(parts)


EMPTY_SIGMA = Sigma(prods=(), tail=None)


def fresh_sigma_row() -> Sigma:
    """An entirely unknown sum: ``σ`` alone."""
    return Sigma(prods=(), tail=SigmaVar())


def closed_sigma(prods: Sequence[Pi]) -> Sigma:
    return Sigma(prods=tuple(prods), tail=None)


# ---------------------------------------------------------------------------
# mt — extended OCaml types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class MTVar:
    """A monomorphic OCaml type variable ``α``."""

    name: str = ""
    id: int = field(default_factory=_next_id)

    def __str__(self) -> str:
        return self.name or f"α{self.id}"


@dataclass(frozen=True)
class MTArrow(metaclass=InternedMeta):
    """An OCaml function type ``mt → mt`` (curried, one step)."""

    param: "MLType"
    result: "MLType"

    def __str__(self) -> str:
        return f"({self.param} → {self.result})"


@dataclass(frozen=True)
class MTCustom(metaclass=InternedMeta):
    """``ct custom`` — C data smuggled through OCaml at an opaque type."""

    ctype: "CType"

    def __str__(self) -> str:
        return f"{self.ctype} custom"


@dataclass(frozen=True)
class MTRepr(metaclass=InternedMeta):
    """A representational type ``(Ψ, Σ)``."""

    psi: Psi
    sigma: Sigma

    def __str__(self) -> str:
        return f"({self.psi}, {self.sigma})"


MLType = Union[MTVar, MTArrow, MTCustom, MTRepr]


def fresh_mt(name: str = "") -> MTVar:
    return MTVar(name=name)


#: ρ(unit) = (1, ∅) — the singleton unboxed value 0.
UNIT_REPR = MTRepr(psi=PsiConst(1), sigma=EMPTY_SIGMA)

#: ρ(int) = (⊤, ∅) — any unboxed integer.
INT_REPR = MTRepr(psi=PSI_TOP, sigma=EMPTY_SIGMA)

#: ρ(bool) = (2, ∅) — false and true are the two nullary constructors.
BOOL_REPR = MTRepr(psi=PsiConst(2), sigma=EMPTY_SIGMA)


# ---------------------------------------------------------------------------
# ct — C types
# ---------------------------------------------------------------------------


class CVoid:
    """The C ``void`` type (singleton)."""

    _instance: Optional["CVoid"] = None

    def __new__(cls) -> "CVoid":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "void"

    def __repr__(self) -> str:
        return "C_VOID"


C_VOID = CVoid()


class CInt:
    """All C scalar arithmetic types, collapsed as in the paper (singleton)."""

    _instance: Optional["CInt"] = None

    def __new__(cls) -> "CInt":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "int"

    def __repr__(self) -> str:
        return "C_INT"


C_INT = CInt()


@dataclass(frozen=True)
class CStruct(metaclass=InternedMeta):
    """A named aggregate (struct/union) type, opaque to the analysis."""

    name: str

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True, eq=False, slots=True)
class CTVar:
    """An unknown C type — the hidden representation of an opaque OCaml type.

    An ``external`` mentioning an abstract type gives C no information about
    the representation; the first cast in glue code pins it down, and any
    later use at a different C type is the cross-language cast the paper's
    custom types exist to forbid (§2 end).
    """

    name: str = ""
    id: int = field(default_factory=_next_id)

    def __str__(self) -> str:
        return self.name or f"τ{self.id}"


@dataclass(frozen=True, slots=True)
class CValue:
    """``mt value`` — OCaml data seen from C."""

    mt: MLType

    def __str__(self) -> str:
        return f"{self.mt} value"


@dataclass(frozen=True)
class CPtr(metaclass=InternedMeta):
    """``ct *``."""

    target: "CType"

    def __str__(self) -> str:
        return f"{self.target} *"


@dataclass(frozen=True, slots=True)
class CFun:
    """``ct × ... × ct →GC ct``."""

    params: Tuple["CType", ...]
    result: "CType"
    effect: GCEffect

    def __str__(self) -> str:
        params = " × ".join(str(p) for p in self.params) or "void"
        return f"({params} →{self.effect} {self.result})"


CType = Union[CVoid, CInt, CStruct, CTVar, CValue, CPtr, CFun]


def fresh_ctvar(name: str = "") -> CTVar:
    return CTVar(name=name)


# ---------------------------------------------------------------------------
# Term traversal helpers
# ---------------------------------------------------------------------------


def iter_subterms(term: Union[CType, MLType, Psi, Sigma, Pi]) -> Iterator[object]:
    """Yield ``term`` and every type-level subterm beneath it (pre-order).

    Used by the occurs check and by pretty-printing; traverses the raw
    structure without consulting any substitution.
    """
    stack: list[object] = [term]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, CValue):
            stack.append(node.mt)
        elif isinstance(node, CPtr):
            stack.append(node.target)
        elif isinstance(node, CFun):
            stack.extend(node.params)
            stack.append(node.result)
            stack.append(node.effect)
        elif isinstance(node, MTArrow):
            stack.append(node.param)
            stack.append(node.result)
        elif isinstance(node, MTCustom):
            stack.append(node.ctype)
        elif isinstance(node, MTRepr):
            stack.append(node.psi)
            stack.append(node.sigma)
        elif isinstance(node, Sigma):
            stack.extend(node.prods)
            if node.tail is not None:
                stack.append(node.tail)
        elif isinstance(node, Pi):
            stack.extend(node.elems)
            if node.tail is not None:
                stack.append(node.tail)
