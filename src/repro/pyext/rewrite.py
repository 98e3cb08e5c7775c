"""Normalize CPython idioms into the C subset the shared lowering models.

The ``NULL`` and null-test rewrites are shared with the jni dialect
(:mod:`repro.cfront.idioms`, here with ``__pyext_null`` and
``__pyext_is_null``); the CPython spellings are this module's:

* ``PyArg_ParseTuple(args, fmt, ...)`` collapses to
  ``__pyext_parse_args(args)`` — the varargs tail is the format checker's
  business, not unification's;
* ``Py_BuildValue(fmt, ...)`` collapses to ``__pyext_build_value()``;
* ``PyErr_Format(exc, fmt, ...)`` truncates to its two fixed arguments;
* statement macros ``Py_RETURN_NONE``/``_TRUE``/``_FALSE`` become
  ``return __pyext_none();``.

Variables are typed in declaration order, as the rewrite reaches them.
"""

from __future__ import annotations

from typing import Optional

from ..cfront import ast
from ..cfront.idioms import IdiomRewriter, call, rewrite_with
from .runtime import RETURN_MACROS, RUNTIME_FUNCTIONS

#: call rewrites: callee -> new name + number of leading arguments to keep
_CALL_REWRITES: dict[str, tuple[str, int]] = {
    "PyArg_ParseTuple": ("__pyext_parse_args", 1),
    "PyArg_VaParse": ("__pyext_parse_args", 1),
    "PyArg_ParseTupleAndKeywords": ("__pyext_parse_args_kw", 2),
    "Py_BuildValue": ("__pyext_build_value", 0),
    "PyErr_Format": ("PyErr_Format", 2),
}

#: C-API functions whose result is a value (→ null tests need the builtin)
_VALUE_RESULT_FUNCTIONS = frozenset(
    name for name, spec in RUNTIME_FUNCTIONS.items() if spec.result == "value"
)


class _PyExtRewriter(IdiomRewriter):
    null_builtin = "__pyext_null"
    is_null_builtin = "__pyext_is_null"

    def __init__(self, fn: ast.FunctionDef):
        super().__init__(dict(fn.params))

    def declare(self, decl: ast.Declaration) -> None:
        self.types[decl.name] = decl.ctype

    def is_value_call(self, node: ast.Call) -> bool:
        return (
            isinstance(node.func, ast.Name)
            and node.func.ident in _VALUE_RESULT_FUNCTIONS
        )

    def flatten_call(
        self, node: ast.Call
    ) -> Optional[tuple[str, tuple[ast.CExpr, ...]]]:
        if isinstance(node.func, ast.Name) and node.func.ident in _CALL_REWRITES:
            new_name, keep = _CALL_REWRITES[node.func.ident]
            return new_name, node.args[:keep]
        return None

    def expr_stmt(self, node: ast.ExprStmt) -> Optional[ast.CStmt]:
        macro = node.expr
        if isinstance(macro, ast.Call):  # `Py_RETURN_NONE();` spells it too
            macro = macro.func
        if isinstance(macro, ast.Name) and macro.ident in RETURN_MACROS:
            return ast.ReturnStmt(
                value=call("__pyext_none", (), node.span), span=node.span
            )
        return None


def rewrite_unit(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """A rewritten copy of the unit; the input is left untouched."""
    return rewrite_with(unit, _PyExtRewriter)
