"""The reference discipline of the C-contract dialects: their analogue of
``CAMLprotect``.

In OCaml glue the danger is a heap pointer live across a collection
without being registered.  In CPython and JNI glue the danger is a
reference whose count or lifetime disagrees with the pointers C holds;
:mod:`repro.pyext.refcount` and :mod:`repro.jni.refs` state each
dialect's rules.  Both are the same conservative abstract interpretation
over the surface AST, which lives here: every reference variable carries
a state, and branches join pointwise, with disagreement collapsing to
``unknown`` so reports only fire on facts that hold on *every* path.

The interpreter fixes what the dialects share:

* a read of a variable in the dialect's ``released`` state is a
  use-after error;
* a variable still in the dialect's ``held`` state at a function exit,
  and not returned, is a leak;
* ``y = x`` moves a held reference to its alias (one reference, one
  releaser), leaving ``x`` ``transferred``;
* ``if (x == NULL)``-style tests refine the state (a null can be neither
  leaked nor used), which keeps the allocation-failure early-return
  idiom report-free.

A dialect subclasses :class:`RefDiscipline` for its states, its call
effects and the stores, returns and loop iterations it treats specially.
"""

from __future__ import annotations

from typing import Optional

from ..core.srctypes import CSrcValue
from ..diagnostics import Diagnostic, Kind
from ..source import Span
from . import ast

TRANSFERRED = "transferred"
UNKNOWN = "unknown"

State = dict[str, str]


def is_null(expr: ast.CExpr) -> bool:
    return (isinstance(expr, ast.Name) and expr.ident == "NULL") or (
        isinstance(expr, ast.Num) and expr.value == 0
    )


def strip_casts(expr: ast.CExpr) -> ast.CExpr:
    while isinstance(expr, ast.Cast):
        expr = expr.operand
    return expr


class RefDiscipline:
    """Check one function body; collect diagnostics."""

    #: the state of a value parameter on entry
    param_state: str
    #: the state a release leaves behind; reading it is a use-after
    released: str
    #: the state that must be released before the function exits
    held: str
    #: callee -> the state of the reference its result carries
    results: dict[str, str]
    use_after_kind: Kind
    #: what released it, in the use-after message
    releaser: str
    leak_kind: Kind
    #: the leak message: "<held_noun> held by `x` ... <why>; <release_hint>
    #: is missing"
    held_noun: str
    release_hint: str
    #: why a leak is reported at an exit
    exit_why: str

    def __init__(self, fn: ast.FunctionDef):
        self.fn = fn
        self.diags: list[Diagnostic] = []
        self.acquired_at: dict[str, Span] = {}
        self._reported_use: set[str] = set()
        self._reported_leak: set[str] = set()

    # -- dialect hooks -----------------------------------------------------

    def _callee(self, call: ast.Call) -> Optional[tuple[str, tuple[ast.CExpr, ...]]]:
        """``(entry point, arguments)`` when ``call`` reaches the runtime."""
        raise NotImplementedError

    def _call_effects(
        self,
        callee: str,
        args: tuple[ast.CExpr, ...],
        call: ast.Call,
        state: State,
        span: Span,
    ) -> bool:
        """Interpret a runtime call's reference effects; True if fully
        handled (otherwise the call is only checked for uses)."""
        return False

    def _eval_stored(self, expr: ast.CExpr, state: State, span: Span) -> None:
        """Evaluate an initializer or an assigned right-hand side."""
        self._eval_expr(expr, state, span)

    def _acquire(self, name: str, var_state: str, span: Span) -> None:
        """``name`` was just given ``var_state`` at ``span``."""
        if var_state == self.held:
            self.acquired_at[name] = span

    def _overwritten(self, name: str, span: Span) -> None:
        """A held ``name`` is assigned over."""
        raise NotImplementedError

    def _store(
        self, target: ast.CExpr, value: ast.CExpr, state: State, span: Span
    ) -> None:
        """A store into a container or a field: a held reference escapes
        there."""
        if isinstance(value, ast.Name) and state.get(value.ident) == self.held:
            state[value.ident] = TRANSFERRED
        self._check_uses(target, state, span)

    def _returning(self, name: str, state: State, span: Span) -> None:
        """``return name;`` is reached (before the exit check)."""

    def _loop_body(self, body: ast.CStmtOrDecl, state: State) -> State:
        """The state after one abstract iteration of ``body``."""
        body_state = dict(state)
        self._exec_stmt(body, body_state)
        return body_state

    # -- reporting ---------------------------------------------------------

    def _report(self, kind: Kind, span: Span, message: str) -> None:
        self.diags.append(
            Diagnostic(kind=kind, span=span, message=message, function=self.fn.name)
        )

    def _use_after(self, name: str, span: Span, how: str) -> None:
        if name in self._reported_use:
            return
        self._reported_use.add(name)
        self._report(
            self.use_after_kind,
            span,
            f"`{name}` is {how} after {self.releaser} already released it",
        )

    def _leak(self, name: str, span: Span, why: str) -> None:
        if name in self._reported_leak:
            return
        self._reported_leak.add(name)
        where = self.acquired_at.get(name)
        origin = f" (acquired at {where})" if where is not None else ""
        self._report(
            self.leak_kind,
            span,
            f"{self.held_noun} held by `{name}`{origin} {why}; "
            f"{self.release_hint} is missing",
        )

    # -- expression classification ----------------------------------------

    def _classify_rhs(self, expr: ast.CExpr, state: State) -> str:
        """State of a right-hand side; MOVES a held reference out of an
        aliased source variable."""
        expr = strip_casts(expr)
        if isinstance(expr, ast.Call):
            found = self._callee(expr)
            return UNKNOWN if found is None else self.results.get(found[0], UNKNOWN)
        if isinstance(expr, ast.Name):
            return self._alias(expr.ident, state)
        return UNKNOWN

    def _alias(self, name: str, state: State) -> str:
        source = state.get(name)
        if source == self.held:
            state[name] = TRANSFERRED
            return source
        if source is None or source in (TRANSFERRED, UNKNOWN):
            return UNKNOWN
        return source

    def _check_uses(self, expr: Optional[ast.CExpr], state: State, span: Span) -> None:
        """Flag reads of released variables anywhere inside ``expr``."""
        if expr is None:
            return
        if isinstance(expr, ast.Name):
            if state.get(expr.ident) == self.released:
                self._use_after(expr.ident, span, "used")
            return
        if isinstance(expr, ast.Call):
            for arg in expr.args:
                self._check_uses(arg, state, span)
            return
        if isinstance(expr, ast.Unary):
            self._check_uses(expr.operand, state, span)
        elif isinstance(expr, ast.Binary):
            self._check_uses(expr.left, state, span)
            self._check_uses(expr.right, state, span)
        elif isinstance(expr, ast.Conditional):
            self._check_uses(expr.cond, state, span)
            self._check_uses(expr.then, state, span)
            self._check_uses(expr.other, state, span)
        elif isinstance(expr, ast.Cast):
            self._check_uses(expr.operand, state, span)
        elif isinstance(expr, ast.Index):
            self._check_uses(expr.base, state, span)
            self._check_uses(expr.index, state, span)
        elif isinstance(expr, ast.Member):
            self._check_uses(expr.base, state, span)
        elif isinstance(expr, ast.Assign):
            self._check_uses(expr.value, state, span)
        elif isinstance(expr, ast.IncDec):
            self._check_uses(expr.target, state, span)

    def _eval_expr(self, expr: Optional[ast.CExpr], state: State, span: Span) -> None:
        """Evaluate an expression for its reference effects *and* its uses.

        Conditions and expression statements routinely bury the effectful
        call — ``if (!PyArg_ParseTuple(...))`` is the canonical idiom — so
        calls found anywhere in the tree get their effects applied.
        """
        if expr is None:
            return
        if isinstance(expr, ast.Call):
            found = self._callee(expr)
            if found is None or not self._call_effects(*found, expr, state, span):
                self._check_uses(expr, state, span)
            return
        if isinstance(expr, ast.Unary):
            self._eval_expr(expr.operand, state, span)
        elif isinstance(expr, ast.Binary):
            self._eval_expr(expr.left, state, span)
            self._eval_expr(expr.right, state, span)
        elif isinstance(expr, ast.Conditional):
            self._eval_expr(expr.cond, state, span)
            self._eval_expr(expr.then, state, span)
            self._eval_expr(expr.other, state, span)
        elif isinstance(expr, ast.Cast):
            self._eval_expr(expr.operand, state, span)
        elif isinstance(expr, ast.Index):
            self._eval_expr(expr.base, state, span)
            self._eval_expr(expr.index, state, span)
        elif isinstance(expr, ast.Member):
            self._eval_expr(expr.base, state, span)
        elif isinstance(expr, ast.IncDec):
            self._eval_expr(expr.target, state, span)
        elif isinstance(expr, ast.Assign):
            self._apply_assign(expr, state, span)
        else:
            self._check_uses(expr, state, span)

    # -- stores, returns and exits ------------------------------------------

    def _bind(
        self, name: str, value: Optional[ast.CExpr], state: State, span: Span
    ) -> None:
        """``name`` (tracked) takes ``value``."""
        if value is None or is_null(value):
            state[name] = UNKNOWN
        else:
            state[name] = self._classify_rhs(value, state)
            self._acquire(name, state[name], span)

    def _apply_assign(self, node: ast.Assign, state: State, span: Span) -> None:
        self._eval_stored(node.value, state, span)
        target = node.target
        if isinstance(target, ast.Name) and target.ident in state:
            if state[target.ident] == self.held:
                self._overwritten(target.ident, span)
            self._bind(target.ident, node.value, state, span)
        else:
            self._store(target, node.value, state, span)

    def _exit_check(self, state: State, span: Span, returned: Optional[str]) -> None:
        for name, var_state in sorted(state.items()):
            if name != returned and var_state == self.held:
                self._leak(name, span, self.exit_why)

    def _apply_return(
        self, value: Optional[ast.CExpr], state: State, span: Span
    ) -> None:
        returned: Optional[str] = None
        if value is not None:
            self._check_uses(value, state, span)
            value = strip_casts(value)  # `return (PyObject *)x;` returns x
            if isinstance(value, ast.Name):
                returned = value.ident
                self._returning(returned, state, span)
        self._exit_check(state, span, returned)

    # -- condition refinement ----------------------------------------------

    @staticmethod
    def _null_test(cond: ast.CExpr) -> Optional[tuple[str, bool]]:
        """``(name, is_null_in_then)`` for recognizable null tests."""
        if isinstance(cond, ast.Unary) and cond.op == "!":
            inner = cond.operand
            if isinstance(inner, ast.Name):
                return (inner.ident, True)
            return None
        if isinstance(cond, ast.Binary) and cond.op in ("==", "!="):
            for probe, other in ((cond.left, cond.right), (cond.right, cond.left)):
                if isinstance(probe, ast.Name) and is_null(other):
                    return (probe.ident, cond.op == "==")
        if isinstance(cond, ast.Name):
            return (cond.ident, False)
        return None

    # -- statement interpretation -------------------------------------------

    @staticmethod
    def _join(left: State, right: State) -> State:
        joined: State = {}
        for name in set(left) | set(right):
            a, b = left.get(name), right.get(name)
            if a == b and a is not None:
                joined[name] = a
            elif a is None:
                joined[name] = b  # declared in one branch only
            elif b is None:
                joined[name] = a
            else:
                joined[name] = UNKNOWN
        return joined

    def _exec_stmt(self, stmt: ast.CStmtOrDecl, state: State) -> bool:
        """Interpret one statement; True when the path terminated."""
        if isinstance(stmt, ast.Declaration):
            if isinstance(stmt.ctype, CSrcValue):
                if stmt.init is not None and not is_null(stmt.init):
                    self._eval_stored(stmt.init, state, stmt.span)
                self._bind(stmt.name, stmt.init, state, stmt.span)
            elif stmt.init is not None and not isinstance(stmt.init, ast.InitList):
                self._eval_stored(stmt.init, state, stmt.span)
            return False
        if isinstance(stmt, ast.Block):
            for item in stmt.items:
                if self._exec_stmt(item, state):
                    return True
            return False
        if isinstance(stmt, ast.ExprStmt):
            return self._exec_expr_stmt(stmt, state)
        if isinstance(stmt, ast.IfStmt):
            return self._exec_if(stmt, state)
        if isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
            self._eval_expr(stmt.cond, state, stmt.span)
            body_state = self._loop_body(stmt.body, state)
            merged = self._join(state, body_state)  # zero or more iterations
            state.clear()
            state.update(merged)
            return False
        if isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self._exec_stmt(stmt.init, state)
            if stmt.cond is not None:
                self._eval_expr(stmt.cond, state, stmt.span)
            body_state = self._loop_body(stmt.body, state)
            if stmt.step is not None:
                self._eval_expr(stmt.step, body_state, stmt.span)
            merged = self._join(state, body_state)
            state.clear()
            state.update(merged)
            return False
        if isinstance(stmt, ast.SwitchStmt):
            self._eval_expr(stmt.scrutinee, state, stmt.span)
            outcomes: list[State] = []
            for case in stmt.cases:
                case_state = dict(state)
                terminated = False
                for item in case.body:
                    if self._exec_stmt(item, case_state):
                        terminated = True
                        break
                if not terminated:
                    outcomes.append(case_state)
            outcomes.append(state)  # no case may match
            merged = outcomes[0]
            for outcome in outcomes[1:]:
                merged = self._join(merged, outcome)
            state.clear()
            state.update(merged)
            return False
        if isinstance(stmt, ast.ReturnStmt):
            self._apply_return(stmt.value, state, stmt.span)
            return True
        if isinstance(stmt, ast.LabeledStmt):
            return self._exec_stmt(stmt.stmt, state)
        # goto/break/continue/empty: no reference effects modelled
        return False

    def _exec_expr_stmt(self, stmt: ast.ExprStmt, state: State) -> bool:
        if isinstance(stmt.expr, ast.Assign):
            self._apply_assign(stmt.expr, state, stmt.span)
        else:
            self._eval_expr(stmt.expr, state, stmt.span)
        return False

    def _exec_if(self, stmt: ast.IfStmt, state: State) -> bool:
        self._eval_expr(stmt.cond, state, stmt.span)
        then_state = dict(state)
        else_state = dict(state)
        refined = self._null_test(stmt.cond)
        if refined is not None:
            name, null_in_then = refined
            if name in then_state:
                (then_state if null_in_then else else_state)[name] = UNKNOWN
        then_done = self._exec_stmt(stmt.then, then_state)
        else_done = (
            self._exec_stmt(stmt.other, else_state)
            if stmt.other is not None
            else False
        )
        if then_done and else_done:
            return True
        if then_done:
            merged = else_state
        elif else_done:
            merged = then_state
        else:
            merged = self._join(then_state, else_state)
        state.clear()
        state.update(merged)
        return False

    # -- entry point ---------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        if self.fn.body is None:
            return []
        state: State = {
            name: self.param_state
            for name, ctype in self.fn.params
            if isinstance(ctype, CSrcValue)
        }
        terminated = self._exec_stmt(self.fn.body, state)
        if not terminated:
            # falling off the end is an exit too
            self._exit_check(state, self.fn.span, returned=None)
        return self.diags
