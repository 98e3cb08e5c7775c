"""Reading ``JNIEnv`` calls out of the surface AST.

JNI glue spells every runtime call through the environment's function
table: ``(*env)->GetIntField(env, obj, fid)`` in C, ``env->GetIntField(
obj, fid)`` in C++.  The descriptor checker and the reference-discipline
pass both read the *original* AST (the rewrite erases the idiom before
lowering), so the recognizer lives here, shared by all three.
"""

from __future__ import annotations

from typing import Optional

from ..cfront import ast
from ..cfront.idioms import DeclaredTypes
from ..core.srctypes import CSrcPtr, CSrcStruct, CSrcType


def is_env_type(ctype: Optional[CSrcType]) -> bool:
    """``JNIEnv *`` (or deeper: ``JNIEnv **`` in ``JNI_OnLoad`` glue)."""
    node = ctype
    while isinstance(node, CSrcPtr):
        node = node.target
    return isinstance(node, CSrcStruct) and node.name == "JNIEnv"


class VarTypes(DeclaredTypes):
    """Declared types of a function's parameters and locals."""

    def is_env(self, expr: ast.CExpr) -> bool:
        return isinstance(expr, ast.Name) and is_env_type(self.types.get(expr.ident))


def _table_member(func: ast.CExpr, vars: VarTypes) -> Optional[str]:
    """The function-table member name of ``(*env)->F`` / ``env->F``."""
    if not isinstance(func, ast.Member):
        return None
    base = func.base
    if isinstance(base, ast.Unary) and base.op == "*":
        base = base.operand
    if vars.is_env(base):
        return func.field_name
    return None


def env_call(
    call: ast.Call, vars: VarTypes
) -> Optional[tuple[str, tuple[ast.CExpr, ...]]]:
    """``(name, args-without-env)`` when ``call`` goes through ``JNIEnv``.

    Accepts the C spelling (``(*env)->F(env, a, b)`` — the leading env
    argument is dropped) and the C++ one (``env->F(a, b)``).  Returns
    ``None`` for everything else; direct calls to helper functions are
    not JNI entry points.
    """
    name = _table_member(call.func, vars)
    if name is None:
        return None
    args = call.args
    if args and vars.is_env(args[0]):
        args = args[1:]
    return name, args
