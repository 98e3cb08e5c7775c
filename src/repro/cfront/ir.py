"""The simplified C language of paper Figure 5.

This is the analysis's intermediate representation, modelled on CIL: a
function body is a flat list of statements; structured control flow has
been compiled to labels and conditional branches; the OCaml FFI macros
appear as primitives (``Val_int``, ``Int_val``, the three dynamic tests,
``CAMLprotect`` and ``CAMLreturn``).

Expressions are side-effect free.  Function calls are not expressions; they
occur only as the right-hand side of an assignment or as a bare call
statement (the paper folds this into its (App) rule).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..core.srctypes import CSrcType
from ..source import DUMMY_SPAN, Span
from .node import FrozenNode, Node, init_field


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class IntLit(FrozenNode):
    """An integer constant ``n``."""

    __slots__ = ("value", "span")

    def __init__(self, value: int, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "value", value)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return str(self.value)


class StrLit(FrozenNode):
    """A C string literal; typed as ``char *`` (scalar pointer)."""

    __slots__ = ("value", "span")

    def __init__(self, value: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "value", value)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return repr(self.value)


class VarExp(FrozenNode):
    """A variable reference ``x``."""

    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "name", name)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return self.name


class Deref(FrozenNode):
    """``*e``."""

    __slots__ = ("exp", "span")

    def __init__(self, exp: "Expr", span: Span = DUMMY_SPAN) -> None:
        init_field(self, "exp", exp)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"*{self.exp}"


class AOp(FrozenNode):
    """``e aop e`` — arithmetic/comparison on C integers."""

    __slots__ = ("op", "left", "right", "span")

    def __init__(
        self, op: str, left: "Expr", right: "Expr", span: Span = DUMMY_SPAN
    ) -> None:
        init_field(self, "op", op)
        init_field(self, "left", left)
        init_field(self, "right", right)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class PtrAdd(FrozenNode):
    """``e +p e`` — address of an offset into a block."""

    __slots__ = ("base", "offset", "span")

    def __init__(self, base: "Expr", offset: "Expr", span: Span = DUMMY_SPAN) -> None:
        init_field(self, "base", base)
        init_field(self, "offset", offset)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"({self.base} +p {self.offset})"


class CastExp(FrozenNode):
    """``(ct) e``."""

    __slots__ = ("ctype", "exp", "span")

    def __init__(self, ctype: CSrcType, exp: "Expr", span: Span = DUMMY_SPAN) -> None:
        init_field(self, "ctype", ctype)
        init_field(self, "exp", exp)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"(({self.ctype}) {self.exp})"


class ValIntExp(FrozenNode):
    """``Val_int e`` — box a C integer as an OCaml unboxed value."""

    __slots__ = ("exp", "span")

    def __init__(self, exp: "Expr", span: Span = DUMMY_SPAN) -> None:
        init_field(self, "exp", exp)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"Val_int({self.exp})"


class IntValExp(FrozenNode):
    """``Int_val e`` — project an OCaml unboxed value to a C integer."""

    __slots__ = ("exp", "span")

    def __init__(self, exp: "Expr", span: Span = DUMMY_SPAN) -> None:
        init_field(self, "exp", exp)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"Int_val({self.exp})"


class AddrOf(FrozenNode):
    """``&x`` — handled heuristically (paper §5.1)."""

    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "name", name)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"&{self.name}"


Expr = Union[IntLit, StrLit, VarExp, Deref, AOp, PtrAdd, CastExp, ValIntExp, IntValExp, AddrOf]


class CallExp(FrozenNode):
    """A call ``f(e1, ..., en)``; ``func_exp`` is set for indirect calls."""

    __slots__ = ("func", "args", "span", "is_indirect")

    def __init__(
        self,
        func: str,
        args: Tuple[Expr, ...],
        span: Span = DUMMY_SPAN,
        is_indirect: bool = False,
    ) -> None:
        init_field(self, "func", func)
        init_field(self, "args", args)
        init_field(self, "span", span)
        init_field(self, "is_indirect", is_indirect)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        star = "*" if self.is_indirect else ""
        return f"{star}{self.func}({args})"


Rhs = Union[Expr, CallExp]


# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------


class MemLval(FrozenNode):
    """``*(e +p n)`` — a store into a structured block or through a pointer."""

    __slots__ = ("base", "offset", "span")

    def __init__(self, base: Expr, offset: int, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "base", base)
        init_field(self, "offset", offset)
        init_field(self, "span", span)

    def __str__(self) -> str:
        if self.offset:
            return f"*({self.base} +p {self.offset})"
        return f"*{self.base}"


Lval = Union[VarExp, MemLval]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class SAssign(FrozenNode):
    """``lval := e`` or ``lval := f(e, ...)``."""

    __slots__ = ("lval", "rhs", "span")

    def __init__(self, lval: Optional[Lval], rhs: Rhs, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "lval", lval)
        init_field(self, "rhs", rhs)
        init_field(self, "span", span)

    def __str__(self) -> str:
        if self.lval is None:
            return str(self.rhs)
        return f"{self.lval} := {self.rhs}"


class SReturn(FrozenNode):
    """``return e``; ``exp`` is None for void returns."""

    __slots__ = ("exp", "span")

    def __init__(self, exp: Optional[Expr], span: Span = DUMMY_SPAN) -> None:
        init_field(self, "exp", exp)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"return {self.exp}" if self.exp is not None else "return"


class SCamlReturn(FrozenNode):
    """``CAMLreturn(e)`` — return releasing registered values."""

    __slots__ = ("exp", "span")

    def __init__(self, exp: Optional[Expr], span: Span = DUMMY_SPAN) -> None:
        init_field(self, "exp", exp)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"CAMLreturn({self.exp if self.exp is not None else ''})"


class SGoto(FrozenNode):
    __slots__ = ("label", "span")

    def __init__(self, label: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "label", label)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"goto {self.label}"


class SIf(FrozenNode):
    """``if e then L`` — branch to ``L`` when ``e`` is non-zero."""

    __slots__ = ("cond", "label", "span")

    def __init__(self, cond: Expr, label: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "cond", cond)
        init_field(self, "label", label)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"if {self.cond} then {self.label}"


class SIfUnboxed(FrozenNode):
    """``if unboxed(x) then L`` (from ``Is_long``); fall-through is boxed."""

    __slots__ = ("var", "label", "span")

    def __init__(self, var: str, label: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "var", var)
        init_field(self, "label", label)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"if unboxed({self.var}) then {self.label}"


class SIfSumTag(FrozenNode):
    """``if sum_tag(x) == n then L`` (from ``Tag_val`` comparisons)."""

    __slots__ = ("var", "tag", "label", "span")

    def __init__(self, var: str, tag: int, label: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "var", var)
        init_field(self, "tag", tag)
        init_field(self, "label", label)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"if sum_tag({self.var}) == {self.tag} then {self.label}"


class SIfIntTag(FrozenNode):
    """``if int_tag(x) == n then L`` (from ``Int_val`` comparisons)."""

    __slots__ = ("var", "tag", "label", "span")

    def __init__(self, var: str, tag: int, label: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "var", var)
        init_field(self, "tag", tag)
        init_field(self, "label", label)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"if int_tag({self.var}) == {self.tag} then {self.label}"


class SNop(FrozenNode):
    """A no-op; exists to give labels a statement to hang on."""

    __slots__ = ("span",)

    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "span", span)

    def __str__(self) -> str:
        return "nop"


Stmt = Union[
    SAssign, SReturn, SCamlReturn, SGoto, SIf, SIfUnboxed, SIfSumTag, SIfIntTag, SNop
]


# ---------------------------------------------------------------------------
# Declarations, functions, programs
# ---------------------------------------------------------------------------


class VarDecl(FrozenNode):
    """``ctype x = e`` at the top of a function."""

    __slots__ = ("name", "ctype", "init", "span")

    def __init__(
        self,
        name: str,
        ctype: CSrcType,
        init: Optional[Rhs] = None,
        span: Span = DUMMY_SPAN,
    ) -> None:
        init_field(self, "name", name)
        init_field(self, "ctype", ctype)
        init_field(self, "init", init)
        init_field(self, "span", span)

    def __str__(self) -> str:
        init = f" = {self.init}" if self.init is not None else ""
        return f"{self.ctype} {self.name}{init}"


class ProtectDecl(FrozenNode):
    """``CAMLprotect(x)`` — formalizes CAMLparam/CAMLlocal (paper §3.2)."""

    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "name", name)
        init_field(self, "span", span)

    def __str__(self) -> str:
        return f"CAMLprotect({self.name})"


Decl = Union[VarDecl, ProtectDecl]


class FunctionIR(Node):
    """One C function lowered to the Figure 5 shape."""

    __slots__ = (
        "name",
        "params",
        "return_type",
        "decls",
        "body",
        "labels",
        "span",
        "is_definition",
        "polymorphic",
    )

    def __init__(
        self,
        name: str,
        params: list[tuple[str, CSrcType]],
        return_type: CSrcType,
        decls: Optional[list[Decl]] = None,
        body: Optional[list[Stmt]] = None,
        labels: Optional[dict[str, int]] = None,
        span: Span = DUMMY_SPAN,
        is_definition: bool = True,
        polymorphic: bool = False,
    ) -> None:
        self.name = name
        self.params = params
        self.return_type = return_type
        self.decls = [] if decls is None else decls
        self.body = [] if body is None else body
        self.labels = {} if labels is None else labels
        self.span = span
        self.is_definition = is_definition
        #: set for functions hand-annotated as polymorphic (paper §5.1)
        self.polymorphic = polymorphic

    def label_index(self, label: str) -> int:
        if label not in self.labels:
            raise KeyError(f"undefined label `{label}` in `{self.name}`")
        return self.labels[label]

    @property
    def protected_names(self) -> list[str]:
        return [d.name for d in self.decls if isinstance(d, ProtectDecl)]

    @property
    def local_decls(self) -> list[VarDecl]:
        return [d for d in self.decls if isinstance(d, VarDecl)]

    def pretty(self) -> str:
        lines = [
            f"function {self.return_type} {self.name}("
            + ", ".join(f"{t} {n}" for n, t in self.params)
            + ")"
        ]
        for decl in self.decls:
            lines.append(f"  {decl};")
        index_to_labels: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            index_to_labels.setdefault(index, []).append(label)
        for index, stmt in enumerate(self.body):
            for label in index_to_labels.get(index, ()):
                lines.append(f" {label}:")
            lines.append(f"  {stmt};")
        return "\n".join(lines)


class ProgramIR(Node):
    """A lowered translation unit (or several merged ones)."""

    __slots__ = ("functions", "globals")

    def __init__(
        self,
        functions: Optional[list[FunctionIR]] = None,
        globals: Optional[list[VarDecl]] = None,
    ) -> None:
        self.functions = [] if functions is None else functions
        self.globals = [] if globals is None else globals

    def function(self, name: str) -> FunctionIR:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named `{name}`")

    def merge(self, other: "ProgramIR") -> "ProgramIR":
        return ProgramIR(
            functions=self.functions + other.functions,
            globals=self.globals + other.globals,
        )


def expr_vars(exp: Union[Expr, CallExp, None]) -> set[str]:
    """Free variables of an expression (for liveness and the GC check)."""
    out: set[str] = set()
    _collect_vars(exp, out)
    return out


def _collect_vars(exp: Union[Expr, CallExp, None], out: set[str]) -> None:
    if exp is None:
        return
    if isinstance(exp, VarExp):
        out.add(exp.name)
    elif isinstance(exp, AddrOf):
        out.add(exp.name)
    elif isinstance(exp, Deref):
        _collect_vars(exp.exp, out)
    elif isinstance(exp, AOp):
        _collect_vars(exp.left, out)
        _collect_vars(exp.right, out)
    elif isinstance(exp, PtrAdd):
        _collect_vars(exp.base, out)
        _collect_vars(exp.offset, out)
    elif isinstance(exp, (CastExp, ValIntExp, IntValExp)):
        _collect_vars(exp.exp, out)
    elif isinstance(exp, CallExp):
        for arg in exp.args:
            _collect_vars(arg, out)
        if exp.is_indirect:
            out.add(exp.func)
