"""The reference-count discipline: pyext's analogue of ``CAMLprotect``.

In OCaml glue the danger is a heap pointer *live across* a collection
without being registered; in CPython glue the danger is a reference count
that disagrees with how many pointers exist.  The shapes line up:

==========================  =====================================
OCaml dialect               pyext dialect
==========================  =====================================
unprotected live value      owned reference never ``Py_DECREF``-ed
``CAMLprotect``             ``Py_INCREF`` (taking ownership)
use after ``CAMLreturn``    use after ``Py_DECREF``
==========================  =====================================

The pass is the shared reference-discipline interpretation
(:mod:`repro.cfront.discipline`).  Every ``PyObject *`` variable carries
one of five states — ``borrowed`` (parameters, ``PyTuple_GetItem``-style
results, the singletons), ``owned`` (results of new-reference
constructors), ``released`` (after ``Py_DECREF``), ``transferred`` (given
to a reference-stealing call), or ``unknown``:

* use of a ``released`` variable  → ``PY_USE_AFTER_DECREF`` (error)
* ``owned`` at a function exit, or overwritten → ``PY_REF_LEAK`` (error)
* ``borrowed`` escaping (returned / stolen) → ``PY_BORROWED_ESCAPE``
  (warning — the paper's "questionable practice" column)
"""

from __future__ import annotations

from typing import Optional

from ..cfront import ast
from ..cfront.discipline import (
    TRANSFERRED,
    UNKNOWN,
    RefDiscipline,
    State,
)
from ..diagnostics import Diagnostic, Kind
from ..source import Span
from .runtime import (
    BORROWED_REF_FUNCTIONS,
    DECREF_FUNCTIONS,
    GLOBAL_VALUES,
    INCREF_FUNCTIONS,
    NEW_REF_FUNCTIONS,
    RETURN_MACROS,
    STEALS_REFERENCE,
)

BORROWED = "borrowed"
OWNED = "owned"
RELEASED = "released"

#: parser entry points whose ``O`` outputs hand back borrowed references
_PARSE_FUNCTIONS = {"PyArg_ParseTuple", "PyArg_ParseTupleAndKeywords"}


class RefcountChecker(RefDiscipline):
    """Check one function body; collect diagnostics."""

    param_state = BORROWED
    released = RELEASED
    held = OWNED
    results = {
        **dict.fromkeys(BORROWED_REF_FUNCTIONS, BORROWED),
        **dict.fromkeys(NEW_REF_FUNCTIONS, OWNED),
    }
    use_after_kind = Kind.PY_USE_AFTER_DECREF
    releaser = "Py_DECREF"
    leak_kind = Kind.PY_REF_LEAK
    held_noun = "new reference"
    release_hint = "Py_DECREF"
    exit_why = "is still owned at this return"

    def _callee(self, call: ast.Call) -> Optional[tuple[str, tuple[ast.CExpr, ...]]]:
        if isinstance(call.func, ast.Name):
            return call.func.ident, call.args
        return None

    def _alias(self, name: str, state: State) -> str:
        if name in GLOBAL_VALUES:
            return BORROWED
        return super()._alias(name, state)

    def _eval_stored(self, expr: ast.CExpr, state: State, span: Span) -> None:
        # a stored right-hand side is read for uses only: its call's
        # reference effect is what the classification records
        self._check_uses(expr, state, span)

    def _call_effects(
        self,
        callee: str,
        args: tuple[ast.CExpr, ...],
        call: ast.Call,
        state: State,
        span: Span,
    ) -> bool:
        if callee in INCREF_FUNCTIONS and len(args) == 1:
            if isinstance(args[0], ast.Name):
                name = args[0].ident
                if state.get(name) == RELEASED:
                    self._use_after(name, span, "Py_INCREF-ed")
                    state[name] = UNKNOWN
                elif name in state or name in GLOBAL_VALUES:
                    state[name] = OWNED
                    self.acquired_at.setdefault(name, span)
            return True
        if callee in DECREF_FUNCTIONS and len(args) == 1:
            if isinstance(args[0], ast.Name):
                name = args[0].ident
                if state.get(name) == RELEASED:
                    self._use_after(name, span, f"{callee}-ed again")
                elif name in state:
                    state[name] = RELEASED
            return True
        if callee in STEALS_REFERENCE:
            index = STEALS_REFERENCE[callee]
            self._check_uses(call, state, span)
            if index < len(args) and isinstance(args[index], ast.Name):
                name = args[index].ident
                if state.get(name) == OWNED:
                    state[name] = TRANSFERRED
                elif state.get(name) == BORROWED:
                    self._report(
                        Kind.PY_BORROWED_ESCAPE,
                        span,
                        f"`{callee}` steals a reference but `{name}` is "
                        "borrowed; Py_INCREF it first",
                    )
                    state[name] = UNKNOWN
            return True
        if callee in _PARSE_FUNCTIONS:
            self._check_uses(call, state, span)
            # "O"-converted outputs are borrowed references
            for arg in args:
                if (
                    isinstance(arg, ast.Unary)
                    and arg.op == "&"
                    and isinstance(arg.operand, ast.Name)
                    and arg.operand.ident in state
                ):
                    state[arg.operand.ident] = BORROWED
            return True
        return False

    def _overwritten(self, name: str, span: Span) -> None:
        self._leak(name, span, "is overwritten while still owned")

    def _returning(self, name: str, state: State, span: Span) -> None:
        if state.get(name, BORROWED if name in GLOBAL_VALUES else None) == BORROWED:
            self._report(
                Kind.PY_BORROWED_ESCAPE,
                span,
                f"returning borrowed reference `{name}` without "
                "Py_INCREF; the caller will over-release it",
            )

    def _exec_expr_stmt(self, stmt: ast.ExprStmt, state: State) -> bool:
        expr = stmt.expr
        if isinstance(expr, ast.Name) and expr.ident in RETURN_MACROS:
            # Py_RETURN_NONE ≡ Py_INCREF(Py_None); return Py_None;
            self._exit_check(state, stmt.span, returned=None)
            return True
        return super()._exec_expr_stmt(stmt, state)


def check_unit(unit: ast.TranslationUnit) -> list[Diagnostic]:
    """Reference-discipline diagnostics for every function in the unit."""
    diags: list[Diagnostic] = []
    for fn in unit.functions:
        diags.extend(RefcountChecker(fn).run())
    return diags
