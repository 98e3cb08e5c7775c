"""Shared C-side summary extraction.

All three dialects parse their units into the same
:class:`~repro.cfront.ast.TranslationUnit` shape, so the export/extern
split is dialect-independent: a :class:`~repro.cfront.ast.FunctionDef`
with a body is an *export* (the unit supplies that symbol at link time);
a prototype whose name nothing in the same unit defines is an *extern*
(a claim about a symbol some other unit must supply).  Dialects layer
their registration tables and host bindings on top.

Types are rendered through :class:`~repro.core.srctypes.CSrcType`'s
``__str__`` so two units agree exactly when their declarations resolve to
the same C type — the linker compares rendered strings, never live type
objects, keeping summaries trivially serializable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..cfront.ast import FunctionDef, TranslationUnit
from .summary import InterfaceSummary, SymbolRow

if TYPE_CHECKING:
    from ..boundary import BoundaryDialect


def function_type(fn: FunctionDef) -> str:
    """Render a function's C type as ``ret(param, ...)``."""
    params = ", ".join(str(ctype) for _name, ctype in fn.params)
    return f"{fn.return_type}({params})"


def function_row(fn: FunctionDef, *, detail: str = "") -> SymbolRow:
    span = fn.span
    return SymbolRow(
        symbol=fn.name,
        type=function_type(fn),
        file=span.filename,
        line=span.start.line,
        detail=detail,
    )


def summarize_units(
    summary: InterfaceSummary,
    units: Iterable[TranslationUnit],
    *,
    ignore: frozenset[str] = frozenset(),
) -> InterfaceSummary:
    """Fill ``exports``/``externs`` from parsed translation units.

    ``ignore`` names symbols that are not link-relevant — the dialect's
    runtime builtins (``caml_alloc``, ``PyArg_ParseTuple``, JNI entry
    points): prototypes for those describe the host runtime, not a
    sibling unit, and must not produce unresolved-extern noise.
    """
    defined: set[str] = set()
    for unit in units:
        for fn in unit.functions:
            if fn.body is not None:
                defined.add(fn.name)
    seen_externs: set[str] = set()
    for unit in units:
        for fn in unit.functions:
            if fn.name in ignore:
                continue
            if fn.body is not None:
                summary.exports.append(function_row(fn))
            elif fn.name not in defined and fn.name not in seen_externs:
                seen_externs.add(fn.name)
                summary.externs.append(function_row(fn))
    return summary


def contract_summary(
    dialect: "BoundaryDialect",
    name: str,
    units: list[TranslationUnit],
    table_rows: Callable[[TranslationUnit], Iterable[SymbolRow]],
    is_entry_point: Callable[[str], bool],
) -> InterfaceSummary:
    """The link slice of unit ``name`` under a dialect whose boundary
    contract lives in its C units (pyext, jni): exports/externs, then per
    unit the rows of its registration tables and its defined entry points
    (``PyInit_*``, ``Java_*``).  The dialect's runtime builtins and
    globals are not link-relevant."""
    summary = InterfaceSummary(unit=name, dialect=dialect.name)
    ignore = frozenset(dialect.builtin_entries()) | frozenset(dialect.global_entries())
    summarize_units(summary, units, ignore=ignore)
    for unit in units:
        summary.registrations.extend(table_rows(unit))
        summary.registrations.extend(
            function_row(fn, detail=fn.name)
            for fn in unit.functions
            if fn.body is not None and is_entry_point(fn.name)
        )
    return summary
