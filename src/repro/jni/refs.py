"""The local/global reference discipline: JNI's analogue of ``CAMLprotect``.

In OCaml glue the danger is a heap pointer live across a collection
without being registered; in JNI glue the danger is a reference whose
lifetime disagrees with the frame it lives in.  The shapes line up:

==========================  ========================================
OCaml dialect               jni dialect
==========================  ========================================
unprotected live value      local ref created per iteration, never
                            ``DeleteLocalRef``-ed (table overflow)
``CAMLprotect``             ``NewGlobalRef`` (outliving the frame)
use after ``CAMLreturn``    use after ``DeleteLocalRef``
==========================  ========================================

The pass is the shared reference-discipline interpretation
(:mod:`repro.cfront.discipline`).  Every reference variable carries one
of six states — ``arg`` (value parameters: VM-owned locals), ``local``
(results of local-ref producers), ``global`` (results of
``NewGlobalRef``), ``deleted``, ``transferred``, ``unknown``:

* use of a ``deleted`` reference → ``JNI_USE_AFTER_DELETE`` (error)
* a reference still ``local`` when a loop body ends an iteration it was
  acquired in → ``JNI_LOCAL_REF_LEAK`` (error: the fixed-size local
  reference table overflows under iteration)
* a ``global`` reference live at exit and not returned →
  ``JNI_GLOBAL_REF_LEAK`` (error)
* a ``local``/``arg`` reference stored into a file-scope global without
  ``NewGlobalRef`` → ``JNI_LOCAL_ESCAPE`` (warning — the frame dies, the
  cached pointer dangles)

References are *not* required to be deleted on straight-line paths: the
VM frees the frame's locals itself, so only iteration and caching are
dangerous.
"""


from __future__ import annotations

from typing import Optional

from ..cfront import ast
from ..cfront.discipline import (
    TRANSFERRED,
    UNKNOWN,
    RefDiscipline,
    State,
    strip_casts,
)
from ..cfront.idioms import value_globals
from ..diagnostics import Diagnostic, Kind
from ..source import Span
from .calls import VarTypes, env_call
from .runtime import (
    DELETE_GLOBAL_FUNCTIONS,
    DELETE_LOCAL_FUNCTIONS,
    GLOBAL_REF_FUNCTIONS,
    LOCAL_REF_FUNCTIONS,
)

ARG = "arg"
LOCAL = "local"
GLOBAL = "global"
DELETED = "deleted"

_DELETE_FUNCTIONS = DELETE_LOCAL_FUNCTIONS | DELETE_GLOBAL_FUNCTIONS


class RefChecker(RefDiscipline):
    """Check one function body; collect diagnostics."""

    param_state = ARG
    released = DELETED
    held = GLOBAL
    results = {
        **dict.fromkeys(GLOBAL_REF_FUNCTIONS, GLOBAL),
        **dict.fromkeys(LOCAL_REF_FUNCTIONS, LOCAL),
    }
    use_after_kind = Kind.JNI_USE_AFTER_DELETE
    releaser = "DeleteLocalRef/DeleteGlobalRef"
    leak_kind = Kind.JNI_GLOBAL_REF_LEAK
    held_noun = "global reference"
    release_hint = "DeleteGlobalRef"
    exit_why = "is still live at this return"

    def __init__(self, fn: ast.FunctionDef, global_values: frozenset[str]):
        super().__init__(fn)
        self.vars = VarTypes(fn)
        self.global_values = global_values
        #: append-only log of (name, span) local-ref acquisitions, so loop
        #: bodies can see what this iteration created
        self._acq_log: list[tuple[str, Span]] = []
        self._reported_local_leak: set[str] = set()

    def _callee(self, call: ast.Call) -> Optional[tuple[str, tuple[ast.CExpr, ...]]]:
        return env_call(call, self.vars)

    def _call_effects(
        self,
        callee: str,
        args: tuple[ast.CExpr, ...],
        call: ast.Call,
        state: State,
        span: Span,
    ) -> bool:
        if callee not in _DELETE_FUNCTIONS or len(args) != 1:
            return False
        target = strip_casts(args[0])
        if isinstance(target, ast.Name):
            name = target.ident
            if state.get(name) == DELETED:
                self._use_after(name, span, f"{callee}-ed again")
            elif name in state:
                state[name] = DELETED
        return True

    def _acquire(self, name: str, var_state: str, span: Span) -> None:
        if var_state in (LOCAL, GLOBAL):
            self.acquired_at[name] = span
        if var_state == LOCAL:
            self._acq_log.append((name, span))

    def _overwritten(self, name: str, span: Span) -> None:
        self._report(
            Kind.JNI_GLOBAL_REF_LEAK,
            span,
            f"global reference held by `{name}` is overwritten "
            "while still live; DeleteGlobalRef is missing",
        )

    def _store(
        self, target: ast.CExpr, value: ast.CExpr, state: State, span: Span
    ) -> None:
        if isinstance(target, ast.Name) and target.ident in self.global_values:
            self._escape_check(value, state, span)
            return
        # unlike a pyext store, a cast does not hide the stored reference
        super()._store(target, strip_casts(value), state, span)

    def _escape_check(self, value: ast.CExpr, state: State, span: Span) -> None:
        """A reference stored into a file-scope global must be a global ref."""
        probe = strip_casts(value)
        if isinstance(probe, ast.Name):
            source = state.get(probe.ident)
            if source in (LOCAL, ARG):
                self._report(
                    Kind.JNI_LOCAL_ESCAPE,
                    span,
                    f"local reference `{probe.ident}` is cached in a "
                    "global; it dies with this native frame — promote it "
                    "with NewGlobalRef first",
                )
                state[probe.ident] = UNKNOWN
            elif source == GLOBAL:
                state[probe.ident] = TRANSFERRED
            return
        if self._classify_rhs(probe, dict(state)) == LOCAL:
            self._report(
                Kind.JNI_LOCAL_ESCAPE,
                span,
                "a fresh local reference is cached in a global; it dies "
                "with this native frame — promote it with NewGlobalRef "
                "first",
            )

    def _loop_body(self, body: ast.CStmtOrDecl, state: State) -> State:
        """One abstract iteration; reports locals the iteration strands.

        Anything acquired during the body and still ``local`` when the
        body ends repeats its acquisition every iteration without a
        matching ``DeleteLocalRef`` — the local-reference-table overflow.
        """
        body_state = dict(state)
        mark = len(self._acq_log)
        terminated = self._exec_stmt(body, body_state)
        if not terminated:
            for name, where in self._acq_log[mark:]:
                if body_state.get(name) != LOCAL:
                    continue
                if name in self._reported_local_leak:
                    continue
                self._reported_local_leak.add(name)
                self._report(
                    Kind.JNI_LOCAL_REF_LEAK,
                    where,
                    f"`{name}` takes a fresh local reference on every "
                    "iteration of this loop and is never DeleteLocalRef-ed; "
                    "the local reference table will overflow",
                )
        return body_state


def check_unit(unit: ast.TranslationUnit) -> list[Diagnostic]:
    """Reference-discipline diagnostics for every function in the unit."""
    globals_ = value_globals(unit)
    diags: list[Diagnostic] = []
    for fn in unit.functions:
        diags.extend(RefChecker(fn, globals_).run())
    return diags
