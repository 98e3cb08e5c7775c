"""Normalize JNI idioms into the C subset the shared lowering models.

The ``NULL`` and null-test rewrites are shared with the pyext dialect
(:mod:`repro.cfront.idioms`, here with ``__jni_null`` and
``__jni_is_null``); the JNI spellings are this module's:

* ``(*env)->GetIntField(env, obj, fid)`` — the C spelling of a call
  through the ``JNIEnv`` function table — flattens to a direct
  ``GetIntField(obj, fid)`` call against the runtime table (the C++
  spelling ``env->GetIntField(obj, fid)`` flattens identically);
* the varargs tails of ``Call<T>Method``/``NewObject`` are truncated to
  the table's fixed arity — the argument list is the descriptor
  checker's business, not unification's;
* stores into file-scope reference globals (``cached_cls = ...`` — the
  class/method caching idiom) keep only their right-hand side: the
  checker does not track value globals (they surface as ``GLOBAL_VALUE``
  imprecision), and the reference pass owns the escape semantics.

Variables are typed up front, from every declaration in the function.
"""

from __future__ import annotations

from typing import Optional

from ..cfront import ast
from ..cfront.idioms import IdiomRewriter, rewrite_with, value_globals
from .calls import VarTypes, env_call
from .runtime import RUNTIME_FUNCTIONS

#: entry points whose result is a value (→ null tests need the builtin)
_VALUE_RESULT_FUNCTIONS = frozenset(
    name for name, spec in RUNTIME_FUNCTIONS.items() if spec.result == "value"
)


class _JniRewriter(IdiomRewriter):
    null_builtin = "__jni_null"
    is_null_builtin = "__jni_is_null"

    def __init__(self, fn: ast.FunctionDef, globals_: frozenset[str]):
        self.vars = VarTypes(fn)
        self.value_globals = globals_
        super().__init__(self.vars.types)

    def is_value_call(self, node: ast.Call) -> bool:
        found = env_call(node, self.vars)
        return found is not None and found[0] in _VALUE_RESULT_FUNCTIONS

    def flatten_call(
        self, node: ast.Call
    ) -> Optional[tuple[str, tuple[ast.CExpr, ...]]]:
        found = env_call(node, self.vars)
        if found is not None and found[0] in RUNTIME_FUNCTIONS:
            name, args = found
            return name, args[: len(RUNTIME_FUNCTIONS[name].params)]
        return None

    def expr_stmt(self, node: ast.ExprStmt) -> Optional[ast.CStmt]:
        expr = node.expr
        if (
            isinstance(expr, ast.Assign)
            and isinstance(expr.target, ast.Name)
            and expr.target.ident in self.value_globals
            and expr.target.ident not in self.types
        ):
            return ast.ExprStmt(self.expr(expr.value), node.span)
        return None


def rewrite_unit(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """A rewritten copy of the unit; the input is left untouched."""
    globals_ = value_globals(unit)
    return rewrite_with(unit, lambda fn: _JniRewriter(fn, globals_))
