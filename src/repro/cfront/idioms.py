"""Normalize a C-contract dialect's idioms into the C subset the shared
lowering models.

The Figure 5 IR has no varargs and no preprocessor, so the pyext and jni
dialects rewrite a handful of host-API spellings before lowering (the
original AST is what their own passes read — this rewrite runs last and
feeds the type inference only).  What the two share lives here:

* ``NULL`` (kept as an identifier by the dialect's parse hints) becomes a
  call to the dialect's polymorphic null builtin (``__pyext_null``,
  ``__jni_null``), whose fresh ``α value`` result lets ``return NULL;``
  type without committing other ``NULL`` uses to the value type;
* null tests — ``x == NULL``, ``!x``, bare ``x`` in a condition — on
  expressions known to produce a value become calls to the dialect's
  is-null builtin (values support no arithmetic, and the shared rules
  refuse raw values as conditions); on everything else they become plain
  boolean tests.

A dialect subclasses :class:`IdiomRewriter` for the rest: which calls it
rewrites, which expression statements are macros, and how it types
variables.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.srctypes import CSrcType, CSrcValue
from . import ast


def call(name: str, args: tuple[ast.CExpr, ...], span) -> ast.Call:
    return ast.Call(func=ast.Name(name, span), args=args, span=span)


def _is_null(expr: ast.CExpr) -> bool:
    return isinstance(expr, ast.Name) and expr.ident == "NULL"


def value_globals(unit: ast.TranslationUnit) -> frozenset[str]:
    """The unit's file-scope variables of the value type."""
    return frozenset(
        decl.name for decl in unit.globals if isinstance(decl.ctype, CSrcValue)
    )


class DeclaredTypes:
    """Declared types of a function's parameters and locals."""

    def __init__(self, fn: ast.FunctionDef):
        self.types: dict[str, CSrcType] = dict(fn.params)
        if fn.body is not None:
            self._collect(fn.body)

    def _collect(self, stmt: ast.CStmtOrDecl) -> None:
        if isinstance(stmt, ast.Declaration):
            self.types[stmt.name] = stmt.ctype
        elif isinstance(stmt, ast.Block):
            for item in stmt.items:
                self._collect(item)
        elif isinstance(stmt, ast.IfStmt):
            self._collect(stmt.then)
            if stmt.other is not None:
                self._collect(stmt.other)
        elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
            self._collect(stmt.body)
        elif isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self._collect(stmt.init)
            self._collect(stmt.body)
        elif isinstance(stmt, ast.SwitchStmt):
            for case in stmt.cases:
                for item in case.body:
                    self._collect(item)
        elif isinstance(stmt, ast.LabeledStmt):
            self._collect(stmt.stmt)

    def get(self, name: str) -> Optional[CSrcType]:
        return self.types.get(name)


class IdiomRewriter:
    """Rewrites one function body, reading variable types from ``types`` so
    null tests on values can be told apart from null tests on C pointers.

    The dialect hooks are :meth:`declare`, :meth:`is_value_call`,
    :meth:`flatten_call` and :meth:`expr_stmt`.
    """

    #: the dialect's null builtin and its value null test
    null_builtin: str
    is_null_builtin: str

    def __init__(self, types: dict[str, CSrcType]):
        self.types = types

    # -- dialect hooks -----------------------------------------------------

    def declare(self, decl: ast.Declaration) -> None:
        """A declaration is reached (variables typed up front ignore it)."""

    def is_value_call(self, node: ast.Call) -> bool:
        """Whether ``node`` calls an entry point whose result is a value."""
        return False

    def flatten_call(
        self, node: ast.Call
    ) -> Optional[tuple[str, tuple[ast.CExpr, ...]]]:
        """``(callee, kept arguments)`` for a call the dialect rewrites."""
        return None

    def expr_stmt(self, node: ast.ExprStmt) -> Optional[ast.CStmt]:
        """The dialect's rewrite of a whole expression statement, if any."""
        return None

    # -- type probes -------------------------------------------------------

    def _is_value_expr(self, expr: ast.CExpr) -> bool:
        if isinstance(expr, ast.Name):
            return isinstance(self.types.get(expr.ident), CSrcValue)
        if isinstance(expr, ast.Call):
            return self.is_value_call(expr)
        return False

    def _is_null_call(self, operand: ast.CExpr, span) -> ast.Call:
        return call(self.is_null_builtin, (self.expr(operand),), span)

    # -- expressions -------------------------------------------------------

    def expr(self, node: ast.CExpr) -> ast.CExpr:
        if isinstance(node, ast.Name):
            if node.ident == "NULL":
                return call(self.null_builtin, (), node.span)
            return node
        if isinstance(node, (ast.Num, ast.Str, ast.SizeOf, ast.InitList)):
            return node
        if isinstance(node, ast.Unary):
            return ast.Unary(node.op, self.expr(node.operand), node.span)
        if isinstance(node, ast.Binary):
            if node.op in ("==", "!=") and (
                _is_null(node.left) or _is_null(node.right)
            ):
                return self._null_test(node)
            return ast.Binary(
                node.op, self.expr(node.left), self.expr(node.right), node.span
            )
        if isinstance(node, ast.Conditional):
            return ast.Conditional(
                self.cond(node.cond),
                self.expr(node.then),
                self.expr(node.other),
                node.span,
            )
        if isinstance(node, ast.Cast):
            return ast.Cast(node.ctype, self.expr(node.operand), node.span)
        if isinstance(node, ast.Call):
            return self._rewrite_call(node)
        if isinstance(node, ast.Index):
            return ast.Index(self.expr(node.base), self.expr(node.index), node.span)
        if isinstance(node, ast.Member):
            return ast.Member(
                self.expr(node.base), node.field_name, node.arrow, node.span
            )
        if isinstance(node, ast.Assign):
            return ast.Assign(
                node.op, self.expr(node.target), self.expr(node.value), node.span
            )
        if isinstance(node, ast.IncDec):
            return ast.IncDec(node.op, self.expr(node.target), node.span)
        return node

    def _null_test(self, node: ast.Binary) -> ast.CExpr:
        """``e == NULL`` / ``e != NULL`` as a checkable boolean."""
        operand = node.right if _is_null(node.left) else node.left
        if self._is_value_expr(operand):
            test: ast.CExpr = self._is_null_call(operand, node.span)
            if node.op == "!=":
                test = ast.Unary("!", test, node.span)
            return test
        rewritten = self.expr(operand)
        if node.op == "==":
            return ast.Unary("!", rewritten, node.span)
        return rewritten

    def _rewrite_call(self, node: ast.Call) -> ast.CExpr:
        flat = self.flatten_call(node)
        if flat is not None:
            name, args = flat
            return call(name, tuple(self.expr(a) for a in args), node.span)
        return ast.Call(
            func=self.expr(node.func),
            args=tuple(self.expr(a) for a in node.args),
            span=node.span,
        )

    # -- conditions --------------------------------------------------------

    def cond(self, node: ast.CExpr) -> ast.CExpr:
        """A condition position: truthiness of a value means 'not NULL'."""
        if isinstance(node, ast.Unary) and node.op == "!":
            inner = node.operand
            if self._is_value_expr(inner):
                return self._is_null_call(inner, node.span)
            return ast.Unary("!", self.cond(inner), node.span)
        if isinstance(node, ast.Binary) and node.op in ("&&", "||"):
            return ast.Binary(
                node.op, self.cond(node.left), self.cond(node.right), node.span
            )
        if self._is_value_expr(node):
            return ast.Unary("!", self._is_null_call(node, node.span), node.span)
        return self.expr(node)

    # -- statements --------------------------------------------------------

    def stmt(self, node: ast.CStmtOrDecl) -> ast.CStmtOrDecl:
        if isinstance(node, ast.Declaration):
            self.declare(node)
            init = node.init
            if init is not None and not isinstance(init, ast.InitList):
                init = self.expr(init)
            return ast.Declaration(node.name, node.ctype, init, node.span)
        if isinstance(node, ast.Block):
            return ast.Block([self.stmt(s) for s in node.items], node.span)
        if isinstance(node, ast.ExprStmt):
            rewritten = self.expr_stmt(node)
            if rewritten is not None:
                return rewritten
            return ast.ExprStmt(self.expr(node.expr), node.span)
        if isinstance(node, ast.IfStmt):
            return ast.IfStmt(
                self.cond(node.cond),
                self.stmt(node.then),
                self.stmt(node.other) if node.other is not None else None,
                node.span,
            )
        if isinstance(node, ast.WhileStmt):
            return ast.WhileStmt(self.cond(node.cond), self.stmt(node.body), node.span)
        if isinstance(node, ast.DoWhileStmt):
            return ast.DoWhileStmt(
                self.stmt(node.body), self.cond(node.cond), node.span
            )
        if isinstance(node, ast.ForStmt):
            return ast.ForStmt(
                self.stmt(node.init) if node.init is not None else None,
                self.cond(node.cond) if node.cond is not None else None,
                self.expr(node.step) if node.step is not None else None,
                self.stmt(node.body),
                node.span,
            )
        if isinstance(node, ast.SwitchStmt):
            return ast.SwitchStmt(
                self.expr(node.scrutinee),
                [
                    ast.SwitchCase(
                        case.value,
                        [self.stmt(item) for item in case.body],
                        case.span,
                    )
                    for case in node.cases
                ],
                node.span,
            )
        if isinstance(node, ast.ReturnStmt):
            value = self.expr(node.value) if node.value is not None else None
            return ast.ReturnStmt(value, node.span)
        if isinstance(node, ast.LabeledStmt):
            rewritten = self.stmt(node.stmt)
            assert not isinstance(rewritten, ast.Declaration)
            return ast.LabeledStmt(node.label, rewritten, node.span)
        return node


def rewrite_with(
    unit: ast.TranslationUnit,
    rewriter_for: Callable[[ast.FunctionDef], IdiomRewriter],
) -> ast.TranslationUnit:
    """A copy of the unit with every body rewritten by a fresh
    ``rewriter_for(fn)``; the input is left untouched."""
    functions = []
    for fn in unit.functions:
        body: Optional[ast.Block] = None
        if fn.body is not None:
            rewritten = rewriter_for(fn).stmt(fn.body)
            assert isinstance(rewritten, ast.Block)
            body = rewritten
        functions.append(
            ast.FunctionDef(
                name=fn.name,
                return_type=fn.return_type,
                params=list(fn.params),
                body=body,
                span=fn.span,
                polymorphic=fn.polymorphic,
            )
        )
    return ast.TranslationUnit(
        functions=functions, globals=list(unit.globals), filename=unit.filename
    )
