"""The *source* type languages of paper Figure 1.

These are the types as they appear in program text — OCaml types on the
left of an ``external`` declaration, C types in declarations — before being
translated into the multi-lingual language of :mod:`repro.core.types` by
:mod:`repro.core.translate`.

The OCaml grammar here is a superset of Figure 1a: real glue code mentions
``bool``, ``char``, ``string``, ``float``, ``option``, ``list``, ``array``,
records, opaque/abstract types and polymorphic variants, so the repository
must at least represent them (polymorphic variants are represented but
unsupported by the analysis, which reports them — that is the paper's own
false-positive source, §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .intern import InternedMeta
from typing import Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# OCaml source types (Figure 1a, extended)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SUnit(metaclass=InternedMeta):
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class SInt(metaclass=InternedMeta):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class SBool(metaclass=InternedMeta):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class SChar(metaclass=InternedMeta):
    def __str__(self) -> str:
        return "char"


@dataclass(frozen=True)
class SString(metaclass=InternedMeta):
    def __str__(self) -> str:
        return "string"


@dataclass(frozen=True)
class SFloat(metaclass=InternedMeta):
    def __str__(self) -> str:
        return "float"


@dataclass(frozen=True)
class SVar(metaclass=InternedMeta):
    """A type variable ``'a``."""

    name: str

    def __str__(self) -> str:
        return f"'{self.name}"


@dataclass(frozen=True)
class SArrow(metaclass=InternedMeta):
    param: "MLSrcType"
    result: "MLSrcType"

    def __str__(self) -> str:
        param = f"({self.param})" if isinstance(self.param, SArrow) else str(self.param)
        return f"{param} -> {self.result}"


@dataclass(frozen=True)
class STuple(metaclass=InternedMeta):
    elems: Tuple["MLSrcType", ...]

    def __str__(self) -> str:
        return " * ".join(str(e) for e in self.elems)


@dataclass(frozen=True)
class SConstrApp(metaclass=InternedMeta):
    """A named type possibly applied to arguments: ``int list``, ``'a ref``."""

    name: str
    args: Tuple["MLSrcType", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        if len(self.args) == 1:
            return f"{self.args[0]} {self.name}"
        inner = ", ".join(str(a) for a in self.args)
        return f"({inner}) {self.name}"


@dataclass(frozen=True)
class SConstructor(metaclass=InternedMeta):
    """One constructor of a sum declaration: ``A of int * int`` or ``B``."""

    name: str
    args: Tuple["MLSrcType", ...] = ()

    @property
    def is_nullary(self) -> bool:
        return not self.args

    def __str__(self) -> str:
        if self.is_nullary:
            return self.name
        return f"{self.name} of {' * '.join(str(a) for a in self.args)}"


@dataclass(frozen=True)
class SSum(metaclass=InternedMeta):
    """A resolved variant type body."""

    constructors: Tuple[SConstructor, ...]

    def nullary(self) -> Tuple[SConstructor, ...]:
        return tuple(c for c in self.constructors if c.is_nullary)

    def non_nullary(self) -> Tuple[SConstructor, ...]:
        return tuple(c for c in self.constructors if not c.is_nullary)

    def __str__(self) -> str:
        return " | ".join(str(c) for c in self.constructors)


@dataclass(frozen=True)
class SField(metaclass=InternedMeta):
    """One record field; mutability does not change the representation."""

    name: str
    type: "MLSrcType"
    mutable: bool = False

    def __str__(self) -> str:
        prefix = "mutable " if self.mutable else ""
        return f"{prefix}{self.name}: {self.type}"


@dataclass(frozen=True)
class SRecord(metaclass=InternedMeta):
    """A resolved record type body (represented like a tuple)."""

    fields: Tuple[SField, ...]

    def __str__(self) -> str:
        return "{ " + "; ".join(str(f) for f in self.fields) + " }"


@dataclass(frozen=True)
class SPolyVariant(metaclass=InternedMeta):
    """``[ `A | `B of int ]`` — unsupported by the analysis, flagged on use."""

    tags: Tuple[SConstructor, ...]

    def __str__(self) -> str:
        return "[ " + " | ".join("`" + str(t) for t in self.tags) + " ]"


@dataclass(frozen=True)
class SOpaque(metaclass=InternedMeta):
    """An abstract type whose definition is hidden (treated as custom data)."""

    name: str

    def __str__(self) -> str:
        return f"<abstr:{self.name}>"


MLSrcType = Union[
    SUnit,
    SInt,
    SBool,
    SChar,
    SString,
    SFloat,
    SVar,
    SArrow,
    STuple,
    SConstrApp,
    SSum,
    SRecord,
    SPolyVariant,
    SOpaque,
]


def arrow_chain(mltype: MLSrcType) -> list[MLSrcType]:
    """Split ``t1 -> t2 -> ... -> tn`` into ``[t1, ..., tn]``.

    The last element is the (non-arrow) result type; a non-arrow input
    yields a single-element list.
    """
    chain: list[MLSrcType] = []
    node = mltype
    while isinstance(node, SArrow):
        chain.append(node.param)
        node = node.result
    chain.append(node)
    return chain


def make_arrows(params: Sequence[MLSrcType], result: MLSrcType) -> MLSrcType:
    """Inverse of :func:`arrow_chain`."""
    node = result
    for param in reversed(params):
        node = SArrow(param, node)
    return node


# ---------------------------------------------------------------------------
# C source types (Figure 1b, extended with the scalar zoo of real headers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CSrcVoid(metaclass=InternedMeta):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class CSrcScalar(metaclass=InternedMeta):
    """Any C arithmetic type; ``spelling`` keeps the original for messages."""

    spelling: str = "int"

    def __str__(self) -> str:
        return self.spelling


@dataclass(frozen=True)
class CSrcValue(metaclass=InternedMeta):
    """The OCaml FFI ``value`` typedef."""

    def __str__(self) -> str:
        return "value"


@dataclass(frozen=True)
class CSrcPtr(metaclass=InternedMeta):
    target: "CSrcType"

    def __str__(self) -> str:
        return f"{self.target} *"


@dataclass(frozen=True)
class CSrcStruct(metaclass=InternedMeta):
    name: str

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True)
class CSrcFun(metaclass=InternedMeta):
    params: Tuple["CSrcType", ...]
    result: "CSrcType"

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"{self.result} (*)({params})"


CSrcType = Union[CSrcVoid, CSrcScalar, CSrcValue, CSrcPtr, CSrcStruct, CSrcFun]


def is_value_src(ctype: CSrcType) -> bool:
    return isinstance(ctype, CSrcValue)
