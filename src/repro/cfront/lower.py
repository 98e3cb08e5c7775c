"""Lowering from the C AST to the Figure 5 IR, in the style of CIL.

Structured control flow becomes labels and conditional branches; the OCaml
FFI macros become the IR's primitives:

* ``Is_long(x)`` / ``Is_block(x)`` in conditions → ``if_unboxed``,
* ``Tag_val(x) == n`` / ``switch (Tag_val(x))`` → ``if_sum_tag``,
* ``Int_val(x) == n`` / ``switch (Int_val(x))`` → ``if_int_tag``,
* ``Field(x, i)`` → ``*(x +p i)`` (read) or a heap store (write),
* ``CAMLparam``/``CAMLlocal`` → ``CAMLprotect`` declarations,
* ``CAMLreturn`` → the IR's ``CAMLreturn``.

Calls are not expressions in the IR, so embedded calls are extracted into
fresh temporaries typed by the callee's declared return type.  Short-
circuit conditions are compiled branch-wise so that tag tests guarded by
``&&``/``||`` still refine the environment, e.g.
``if (Is_block(v) && Tag_val(v) == 0) ...``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..seeds import seed_table
from ..core.srctypes import CSrcFun, CSrcPtr, CSrcScalar, CSrcType, CSrcValue
from ..source import DUMMY_SPAN, Span
from . import ast, ir
from .macros import (
    ACCESSOR_MACROS,
    CAMLLOCAL_MACROS,
    CAMLPARAM_MACROS,
    CAMLRETURN0_MACROS,
    CAMLRETURN_MACROS,
    FIELD_MACROS,
    INT_OF_VAL_MACROS,
    IS_BLOCK_MACROS,
    IS_LONG_MACROS,
    RUNTIME_FUNCTIONS,
    STORE_FIELD_MACROS,
    TAG_VAL_MACROS,
    VAL_OF_INT_MACROS,
    VALUE_CONSTANTS,
    param_types,
    return_types,
)

WORD_SIZE = 8


class LoweringError(Exception):
    def __init__(self, message: str, span: Span = DUMMY_SPAN):
        self.span = span
        super().__init__(f"{span}: {message}")


@seed_table("ocaml.base_tables")
def _base_tables() -> tuple[dict[str, CSrcType], dict[str, list[CSrcType]]]:
    """The runtime-function tables (PR 5): identical for every unit, so
    they are built once per process and copied per SymbolTable."""
    return return_types(RUNTIME_FUNCTIONS), param_types(RUNTIME_FUNCTIONS)


@dataclass
class SymbolTable:
    """Return/param types of every function visible to the lowering."""

    returns: dict[str, CSrcType] = field(default_factory=dict)
    fn_param_types: dict[str, list[CSrcType]] = field(default_factory=dict)

    @classmethod
    def for_unit(
        cls,
        unit: ast.TranslationUnit,
        extra_returns: Optional[dict[str, CSrcType]] = None,
    ) -> "SymbolTable":
        base_returns, base_params = _base_tables()
        table = cls(dict(base_returns), dict(base_params))
        if extra_returns:
            # dialect runtime tables (e.g. the CPython C API) so embedded
            # calls land in temporaries of the right surface type
            table.returns.update(extra_returns)
        for func in unit.functions:
            table.returns[func.name] = func.return_type
            table.fn_param_types[func.name] = [t for _, t in func.params]
        return table

    def return_type(self, name: str) -> CSrcType:
        return self.returns.get(name, CSrcScalar("int"))


class FunctionLowerer:
    def __init__(self, func: ast.FunctionDef, symbols: SymbolTable):
        self.func = func
        self.symbols = symbols
        self.stmts: list[ir.Stmt] = []
        self.labels: dict[str, int] = {}
        self.pending_labels: list[str] = []
        self.decls: list[ir.Decl] = []
        self.var_types: dict[str, CSrcType] = dict(func.params)
        self.temp_count = 0
        self.label_count = 0
        #: (continue_target, break_target) stack
        self.loops: list[tuple[Optional[str], str]] = []

    # -- emission helpers -------------------------------------------------------

    def emit(self, stmt: ir.Stmt) -> None:
        index = len(self.stmts)
        for label in self.pending_labels:
            self.labels[label] = index
        self.pending_labels.clear()
        self.stmts.append(stmt)

    def place(self, label: str) -> None:
        self.pending_labels.append(label)

    def new_label(self, hint: str) -> str:
        self.label_count += 1
        return f"__{hint}_{self.label_count}"

    def new_temp(self, ctype: CSrcType, span: Span) -> str:
        self.temp_count += 1
        name = f"__t{self.temp_count}"
        self.decls.append(ir.VarDecl(name=name, ctype=ctype, init=None, span=span))
        self.var_types[name] = ctype
        return name

    def declare(self, decl: ast.Declaration) -> None:
        self.decls.append(
            ir.VarDecl(name=decl.name, ctype=decl.ctype, init=None, span=decl.span)
        )
        self.var_types[decl.name] = decl.ctype

    # -- static C types (to tell pointer arithmetic from integer arithmetic) ----

    def static_type(self, exp: ir.Expr) -> Optional[CSrcType]:
        if isinstance(exp, ir.IntLit):
            return CSrcScalar("int")
        if isinstance(exp, ir.StrLit):
            return CSrcPtr(CSrcScalar("char"))
        if isinstance(exp, ir.VarExp):
            return self.var_types.get(exp.name)
        if isinstance(exp, ir.Deref):
            inner = self.static_type(exp.exp)
            if isinstance(inner, CSrcPtr):
                return inner.target
            if isinstance(inner, CSrcValue):
                return CSrcValue()  # Field access yields another value
            return None
        if isinstance(exp, ir.AOp):
            return CSrcScalar("int")
        if isinstance(exp, ir.PtrAdd):
            return self.static_type(exp.base)
        if isinstance(exp, ir.CastExp):
            return exp.ctype
        if isinstance(exp, ir.ValIntExp):
            return CSrcValue()
        if isinstance(exp, ir.IntValExp):
            return CSrcScalar("int")
        if isinstance(exp, ir.AddrOf):
            target = self.var_types.get(exp.name)
            return CSrcPtr(target) if target is not None else None
        return None

    def _is_pointerish(self, exp: ir.Expr) -> bool:
        ctype = self.static_type(exp)
        return isinstance(ctype, (CSrcPtr, CSrcValue, CSrcFun))

    # -- expression lowering ------------------------------------------------------

    def lower_expr(self, exp: ast.CExpr) -> ir.Expr:
        if isinstance(exp, ast.Num):
            return ir.IntLit(exp.value, exp.span)
        if isinstance(exp, ast.Str):
            return ir.StrLit(exp.value, exp.span)
        if isinstance(exp, ast.SizeOf):
            return ir.IntLit(WORD_SIZE, exp.span)
        if isinstance(exp, ast.Name):
            if exp.ident in VALUE_CONSTANTS:
                return ir.ValIntExp(
                    ir.IntLit(VALUE_CONSTANTS[exp.ident], exp.span), exp.span
                )
            return ir.VarExp(exp.ident, exp.span)
        if isinstance(exp, ast.Unary):
            return self._lower_unary(exp)
        if isinstance(exp, ast.Binary):
            return self._lower_binary(exp)
        if isinstance(exp, ast.Conditional):
            return self._lower_conditional(exp)
        if isinstance(exp, ast.Cast):
            return self._lower_cast(exp)
        if isinstance(exp, ast.Call):
            return self._lower_call_expr(exp)
        if isinstance(exp, ast.Index):
            base = self.lower_expr(exp.base)
            index = self.lower_expr(exp.index)
            return ir.Deref(ir.PtrAdd(base, index, exp.span), exp.span)
        if isinstance(exp, ast.Member):
            return self._lower_member(exp)
        if isinstance(exp, ast.Assign):
            self.lower_assign(exp)
            return self._lval_as_expr(exp.target)
        if isinstance(exp, ast.IncDec):
            self._lower_incdec(exp)
            return self._lval_as_expr(exp.target)
        raise LoweringError(f"unsupported expression `{exp}`", getattr(exp, "span", DUMMY_SPAN))

    def _lower_unary(self, exp: ast.Unary) -> ir.Expr:
        if exp.op == "*":
            return ir.Deref(self.lower_expr(exp.operand), exp.span)
        if exp.op == "&":
            operand = exp.operand
            if isinstance(operand, ast.Name):
                return ir.AddrOf(operand.ident, exp.span)
            if isinstance(operand, ast.Index):
                return ir.PtrAdd(
                    self.lower_expr(operand.base),
                    self.lower_expr(operand.index),
                    exp.span,
                )
            raise LoweringError("unsupported address-of operand", exp.span)
        inner = self.lower_expr(exp.operand)
        if exp.op == "!":
            return ir.AOp("==", inner, ir.IntLit(0, exp.span), exp.span)
        if exp.op == "~":
            return ir.AOp("^", inner, ir.IntLit(-1, exp.span), exp.span)
        if exp.op == "-":
            return ir.AOp("-", ir.IntLit(0, exp.span), inner, exp.span)
        raise LoweringError(f"unsupported unary `{exp.op}`", exp.span)

    def _lower_binary(self, exp: ast.Binary) -> ir.Expr:
        if exp.op in ("&&", "||"):
            # value-producing short-circuit: compile through a temporary
            return self._lower_conditional(
                ast.Conditional(
                    cond=exp,
                    then=ast.Num(1, exp.span),
                    other=ast.Num(0, exp.span),
                    span=exp.span,
                )
            )
        left = self.lower_expr(exp.left)
        right = self.lower_expr(exp.right)
        if exp.op in ("+", "-"):
            if self._is_pointerish(left) and not self._is_pointerish(right):
                offset = (
                    right
                    if exp.op == "+"
                    else ir.AOp("-", ir.IntLit(0, exp.span), right, exp.span)
                )
                return ir.PtrAdd(left, offset, exp.span)
            if self._is_pointerish(right) and exp.op == "+":
                return ir.PtrAdd(right, left, exp.span)
        return ir.AOp(exp.op, left, right, exp.span)

    def _lower_conditional(self, exp: ast.Conditional) -> ir.Expr:
        then_probe = self.lower_expr(exp.then)  # for its static type only
        temp_type = self.static_type(then_probe) or CSrcScalar("int")
        temp = self.new_temp(temp_type, exp.span)
        label_true = self.new_label("cond_t")
        label_false = self.new_label("cond_f")
        label_end = self.new_label("cond_end")
        self.lower_cond(exp.cond, label_true, label_false)
        self.place(label_true)
        self.emit(
            ir.SAssign(ir.VarExp(temp, exp.span), self.lower_expr(exp.then), exp.span)
        )
        self.emit(ir.SGoto(label_end, exp.span))
        self.place(label_false)
        self.emit(
            ir.SAssign(ir.VarExp(temp, exp.span), self.lower_expr(exp.other), exp.span)
        )
        self.place(label_end)
        self.emit(ir.SNop(exp.span))
        return ir.VarExp(temp, exp.span)

    def _lower_cast(self, exp: ast.Cast) -> ir.Expr:
        inner = self.lower_expr(exp.operand)
        # (value *) applied to a value is CIL-transparent: the IR treats
        # values directly as pointers (paper §3.2).
        if isinstance(exp.ctype, CSrcPtr) and isinstance(exp.ctype.target, CSrcValue):
            if isinstance(self.static_type(inner), CSrcValue):
                return inner
        return ir.CastExp(exp.ctype, inner, exp.span)

    def _lower_member(self, exp: ast.Member) -> ir.Expr:
        base = self.lower_expr(exp.base)
        if exp.arrow:
            base = ir.Deref(base, exp.span)
        # Struct fields are opaque scalars to the analysis.
        return ir.CastExp(CSrcScalar("int"), base, exp.span)

    # -- calls ------------------------------------------------------------------------

    def _macro_rewrite(self, name: str, exp: ast.Call) -> Optional[ir.Expr]:
        """Rewrite FFI macros that stay expressions."""
        args = exp.args
        if name in VAL_OF_INT_MACROS and len(args) == 1:
            return ir.ValIntExp(self.lower_expr(args[0]), exp.span)
        if name in INT_OF_VAL_MACROS and len(args) == 1:
            return ir.IntValExp(self.lower_expr(args[0]), exp.span)
        if name in FIELD_MACROS and len(args) == 2:
            base = self.lower_expr(args[0])
            index = self.lower_expr(args[1])
            return ir.Deref(ir.PtrAdd(base, index, exp.span), exp.span)
        if name in ACCESSOR_MACROS:
            return self._emit_call_to_temp(
                ir.CallExp(
                    ACCESSOR_MACROS[name],
                    tuple(self.lower_expr(a) for a in args),
                    exp.span,
                ),
                exp.span,
            )
        if name in TAG_VAL_MACROS and len(args) == 1:
            return self._emit_call_to_temp(
                ir.CallExp("caml_tag_val", (self.lower_expr(args[0]),), exp.span),
                exp.span,
            )
        if name in IS_LONG_MACROS and len(args) == 1:
            return self._emit_call_to_temp(
                ir.CallExp("caml_is_long", (self.lower_expr(args[0]),), exp.span),
                exp.span,
            )
        if name in IS_BLOCK_MACROS and len(args) == 1:
            temp = self._emit_call_to_temp(
                ir.CallExp("caml_is_long", (self.lower_expr(args[0]),), exp.span),
                exp.span,
            )
            return ir.AOp("==", temp, ir.IntLit(0, exp.span), exp.span)
        return None

    def _lower_call_expr(self, exp: ast.Call) -> ir.Expr:
        if not isinstance(exp.func, ast.Name):
            raise LoweringError("unsupported call target", exp.span)
        name = exp.func.ident
        rewritten = self._macro_rewrite(name, exp)
        if rewritten is not None:
            return rewritten
        call = self._build_call(name, exp)
        return self._emit_call_to_temp(call, exp.span)

    def _build_call(self, name: str, exp: ast.Call) -> ir.CallExp:
        args = tuple(self.lower_expr(a) for a in exp.args)
        target = self.var_types.get(name)
        is_indirect = isinstance(target, CSrcFun) or (
            isinstance(target, CSrcPtr) and isinstance(target.target, CSrcFun)
        )
        return ir.CallExp(name, args, exp.span, is_indirect=is_indirect)

    def _emit_call_to_temp(self, call: ir.CallExp, span: Span) -> ir.Expr:
        result_type = self.symbols.return_type(call.func)
        if call.is_indirect:
            target = self.var_types.get(call.func)
            if isinstance(target, CSrcPtr) and isinstance(target.target, CSrcFun):
                result_type = target.target.result
            elif isinstance(target, CSrcFun):
                result_type = target.result
        temp = self.new_temp(result_type, span)
        self.emit(ir.SAssign(ir.VarExp(temp, span), call, span))
        return ir.VarExp(temp, span)

    # -- assignment lowering ----------------------------------------------------------

    def _lval_as_expr(self, target: ast.CExpr) -> ir.Expr:
        if isinstance(target, ast.Name):
            return ir.VarExp(target.ident, target.span)
        return self.lower_expr(target)

    def lower_assign(self, exp: ast.Assign) -> None:
        rhs: ir.Rhs
        if exp.op:
            # compound assignment: x += e  →  x = x + e
            expanded = ast.Binary(
                op=exp.op, left=exp.target, right=exp.value, span=exp.span
            )
            rhs = self.lower_expr(expanded)
        elif isinstance(exp.value, ast.Call) and self._is_plain_call(exp.value):
            assert isinstance(exp.value.func, ast.Name)
            rhs = self._build_call(exp.value.func.ident, exp.value)
        else:
            rhs = self.lower_expr(exp.value)
        lval = self._lower_lval(exp.target)
        self.emit(ir.SAssign(lval, rhs, exp.span))

    def _is_plain_call(self, exp: ast.Call) -> bool:
        """A call that is not one of the rewritten FFI macros."""
        if not isinstance(exp.func, ast.Name):
            return False
        name = exp.func.ident
        return not (
            name in VAL_OF_INT_MACROS
            or name in INT_OF_VAL_MACROS
            or name in FIELD_MACROS
            or name in ACCESSOR_MACROS
            or name in TAG_VAL_MACROS
            or name in IS_LONG_MACROS
            or name in IS_BLOCK_MACROS
            or name in VALUE_CONSTANTS
        )

    def _lower_lval(self, target: ast.CExpr) -> Optional[ir.Lval]:
        if isinstance(target, ast.Name):
            return ir.VarExp(target.ident, target.span)
        if isinstance(target, ast.Unary) and target.op == "*":
            return ir.MemLval(self.lower_expr(target.operand), 0, target.span)
        if isinstance(target, ast.Index):
            base = self.lower_expr(target.base)
            index = self.lower_expr(target.index)
            if isinstance(index, ir.IntLit):
                return ir.MemLval(base, index.value, target.span)
            return ir.MemLval(ir.PtrAdd(base, index, target.span), 0, target.span)
        if isinstance(target, ast.Call) and isinstance(target.func, ast.Name):
            if target.func.ident in FIELD_MACROS and len(target.args) == 2:
                base = self.lower_expr(target.args[0])
                index = self.lower_expr(target.args[1])
                if isinstance(index, ir.IntLit):
                    return ir.MemLval(base, index.value, target.span)
                return ir.MemLval(ir.PtrAdd(base, index, target.span), 0, target.span)
        if isinstance(target, ast.Member):
            # struct stores are outside the model; evaluate and discard
            return None
        raise LoweringError(f"unsupported assignment target", target.span)

    def _lower_incdec(self, exp: ast.IncDec) -> None:
        op = "+" if exp.op == "++" else "-"
        self.lower_assign(
            ast.Assign(
                op=op,
                target=exp.target,
                value=ast.Num(1, exp.span),
                span=exp.span,
            )
        )

    # -- condition lowering --------------------------------------------------------------

    def _value_var_for(self, exp: ast.CExpr, span: Span) -> str:
        """A variable naming an OCaml value for the primitive tests."""
        lowered = self.lower_expr(exp)
        if isinstance(lowered, ir.VarExp):
            return lowered.name
        temp = self.new_temp(CSrcValue(), span)
        self.emit(ir.SAssign(ir.VarExp(temp, span), lowered, span))
        return temp

    @staticmethod
    def _as_macro_call(exp: ast.CExpr, names: set[str]) -> Optional[ast.Call]:
        if (
            isinstance(exp, ast.Call)
            and isinstance(exp.func, ast.Name)
            and exp.func.ident in names
            and len(exp.args) == 1
        ):
            return exp
        return None

    def _tag_comparison(
        self, exp: ast.Binary
    ) -> Optional[tuple[str, str, int, str]]:
        """Match ``Tag_val(x) == n`` / ``Int_val(x) != n`` (either side)."""
        if exp.op not in ("==", "!="):
            return None
        for probe, const in ((exp.left, exp.right), (exp.right, exp.left)):
            if not isinstance(const, ast.Num):
                continue
            call = self._as_macro_call(probe, TAG_VAL_MACROS)
            if call is not None:
                var = self._value_var_for(call.args[0], exp.span)
                return ("sum", var, const.value, exp.op)
            call = self._as_macro_call(probe, INT_OF_VAL_MACROS)
            if call is not None:
                var = self._value_var_for(call.args[0], exp.span)
                return ("int", var, const.value, exp.op)
        return None

    def lower_cond(self, cond: ast.CExpr, label_true: str, label_false: str) -> None:
        """Branch-compile a condition; never falls through."""
        span = getattr(cond, "span", DUMMY_SPAN)
        if isinstance(cond, ast.Unary) and cond.op == "!":
            self.lower_cond(cond.operand, label_false, label_true)
            return
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            mid = self.new_label("and")
            self.lower_cond(cond.left, mid, label_false)
            self.place(mid)
            self.lower_cond(cond.right, label_true, label_false)
            return
        if isinstance(cond, ast.Binary) and cond.op == "||":
            mid = self.new_label("or")
            self.lower_cond(cond.left, label_true, mid)
            self.place(mid)
            self.lower_cond(cond.right, label_true, label_false)
            return
        call = self._as_macro_call(cond, IS_LONG_MACROS)
        if call is not None:
            var = self._value_var_for(call.args[0], span)
            self.emit(ir.SIfUnboxed(var, label_true, span))
            self.emit(ir.SGoto(label_false, span))
            return
        call = self._as_macro_call(cond, IS_BLOCK_MACROS)
        if call is not None:
            var = self._value_var_for(call.args[0], span)
            self.emit(ir.SIfUnboxed(var, label_false, span))
            self.emit(ir.SGoto(label_true, span))
            return
        if isinstance(cond, ast.Binary):
            matched = self._tag_comparison(cond)
            if matched is not None:
                family, var, tag, op = matched
                then_label = label_true if op == "==" else label_false
                else_label = label_false if op == "==" else label_true
                if family == "sum":
                    self.emit(ir.SIfSumTag(var, tag, then_label, span))
                else:
                    self.emit(ir.SIfIntTag(var, tag, then_label, span))
                self.emit(ir.SGoto(else_label, span))
                return
        lowered = self.lower_expr(cond)
        self.emit(ir.SIf(lowered, label_true, span))
        self.emit(ir.SGoto(label_false, span))

    # -- statement lowering -------------------------------------------------------------

    def lower_stmt(self, stmt: ast.CStmtOrDecl) -> None:
        if isinstance(stmt, ast.Declaration):
            self.declare(stmt)
            if isinstance(stmt.init, ast.InitList):
                # aggregate initialization is outside the Figure 5 IR; the
                # declaration itself (and its type) is all the analysis sees
                return
            if stmt.init is not None:
                if isinstance(stmt.init, ast.Call) and self._is_plain_call(stmt.init):
                    assert isinstance(stmt.init.func, ast.Name)
                    rhs: ir.Rhs = self._build_call(stmt.init.func.ident, stmt.init)
                else:
                    rhs = self.lower_expr(stmt.init)
                self.emit(ir.SAssign(ir.VarExp(stmt.name, stmt.span), rhs, stmt.span))
            return
        if isinstance(stmt, ast.Block):
            for item in stmt.items:
                self.lower_stmt(item)
            return
        if isinstance(stmt, ast.ExprStmt):
            self._lower_expr_stmt(stmt)
            return
        if isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
            return
        if isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
            return
        if isinstance(stmt, ast.DoWhileStmt):
            self._lower_do_while(stmt)
            return
        if isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
            return
        if isinstance(stmt, ast.SwitchStmt):
            self._lower_switch(stmt)
            return
        if isinstance(stmt, ast.ReturnStmt):
            value = self.lower_expr(stmt.value) if stmt.value is not None else None
            self.emit(ir.SReturn(value, stmt.span))
            return
        if isinstance(stmt, ast.GotoStmt):
            self.emit(ir.SGoto(stmt.label, stmt.span))
            return
        if isinstance(stmt, ast.LabeledStmt):
            self.place(stmt.label)
            self.emit(ir.SNop(stmt.span))
            self.lower_stmt(stmt.stmt)
            return
        if isinstance(stmt, ast.BreakStmt):
            if not self.loops:
                raise LoweringError("break outside loop/switch", stmt.span)
            self.emit(ir.SGoto(self.loops[-1][1], stmt.span))
            return
        if isinstance(stmt, ast.ContinueStmt):
            for cont, _brk in reversed(self.loops):
                if cont is not None:
                    self.emit(ir.SGoto(cont, stmt.span))
                    return
            raise LoweringError("continue outside loop", stmt.span)
        if isinstance(stmt, ast.EmptyStmt):
            return
        raise LoweringError(f"unsupported statement", getattr(stmt, "span", DUMMY_SPAN))

    def _lower_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        exp = stmt.expr
        if isinstance(exp, ast.Name) and exp.ident in CAMLRETURN0_MACROS:
            self.emit(ir.SCamlReturn(None, stmt.span))
            return
        if isinstance(exp, ast.Call) and isinstance(exp.func, ast.Name):
            name = exp.func.ident
            if name in CAMLRETURN0_MACROS:
                self.emit(ir.SCamlReturn(None, stmt.span))
                return
            if name in CAMLRETURN_MACROS:
                args = exp.args
                value = self.lower_expr(args[-1]) if args else None
                self.emit(ir.SCamlReturn(value, stmt.span))
                return
            if name in CAMLPARAM_MACROS:
                for arg in exp.args:
                    if isinstance(arg, ast.Name):
                        self.decls.append(ir.ProtectDecl(arg.ident, stmt.span))
                return
            if name in CAMLLOCAL_MACROS:
                # Figure 5 formalizes CAMLlocal as a declaration plus
                # CAMLprotect; the Val_unit pre-initialization is a GC
                # artifact and must not constrain the variable's type.
                for arg in exp.args:
                    if isinstance(arg, ast.Name):
                        self.decls.append(
                            ir.VarDecl(
                                name=arg.ident,
                                ctype=CSrcValue(),
                                init=None,
                                span=stmt.span,
                            )
                        )
                        self.var_types[arg.ident] = CSrcValue()
                        self.decls.append(ir.ProtectDecl(arg.ident, stmt.span))
                return
            if name in STORE_FIELD_MACROS and len(exp.args) == 3:
                base = self.lower_expr(exp.args[0])
                index = self.lower_expr(exp.args[1])
                value = self.lower_expr(exp.args[2])
                if isinstance(index, ir.IntLit):
                    lval = ir.MemLval(base, index.value, stmt.span)
                else:
                    lval = ir.MemLval(
                        ir.PtrAdd(base, index, stmt.span), 0, stmt.span
                    )
                self.emit(ir.SAssign(lval, value, stmt.span))
                return
            if name in ("caml_modify", "caml_initialize") and len(exp.args) == 2:
                first = exp.args[0]
                if (
                    isinstance(first, ast.Unary)
                    and first.op == "&"
                    and isinstance(first.operand, ast.Call)
                    and isinstance(first.operand.func, ast.Name)
                    and first.operand.func.ident in FIELD_MACROS
                ):
                    # caml_modify(&Field(b, i), v) is a heap store
                    self._lower_expr_stmt(
                        ast.ExprStmt(
                            expr=ast.Call(
                                func=ast.Name("Store_field", stmt.span),
                                args=(
                                    first.operand.args[0],
                                    first.operand.args[1],
                                    exp.args[1],
                                ),
                                span=stmt.span,
                            ),
                            span=stmt.span,
                        )
                    )
                    return
            if self._is_plain_call(exp):
                call = self._build_call(name, exp)
                self.emit(ir.SAssign(None, call, stmt.span))
                return
        if isinstance(exp, ast.Assign):
            self.lower_assign(exp)
            return
        if isinstance(exp, ast.IncDec):
            self._lower_incdec(exp)
            return
        # any other expression statement: evaluate for effects, discard
        self.lower_expr(exp)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        label_then = self.new_label("then")
        label_else = self.new_label("else")
        label_end = self.new_label("endif")
        self.lower_cond(stmt.cond, label_then, label_else)
        self.place(label_then)
        self.emit(ir.SNop(stmt.span))
        self.lower_stmt(stmt.then)
        self.emit(ir.SGoto(label_end, stmt.span))
        self.place(label_else)
        self.emit(ir.SNop(stmt.span))
        if stmt.other is not None:
            self.lower_stmt(stmt.other)
        self.place(label_end)
        self.emit(ir.SNop(stmt.span))

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        label_head = self.new_label("while")
        label_body = self.new_label("body")
        label_end = self.new_label("endwhile")
        self.place(label_head)
        self.emit(ir.SNop(stmt.span))
        self.lower_cond(stmt.cond, label_body, label_end)
        self.place(label_body)
        self.emit(ir.SNop(stmt.span))
        self.loops.append((label_head, label_end))
        self.lower_stmt(stmt.body)
        self.loops.pop()
        self.emit(ir.SGoto(label_head, stmt.span))
        self.place(label_end)
        self.emit(ir.SNop(stmt.span))

    def _lower_do_while(self, stmt: ast.DoWhileStmt) -> None:
        label_body = self.new_label("do")
        label_cond = self.new_label("docond")
        label_end = self.new_label("enddo")
        self.place(label_body)
        self.emit(ir.SNop(stmt.span))
        self.loops.append((label_cond, label_end))
        self.lower_stmt(stmt.body)
        self.loops.pop()
        self.place(label_cond)
        self.emit(ir.SNop(stmt.span))
        self.lower_cond(stmt.cond, label_body, label_end)
        self.place(label_end)
        self.emit(ir.SNop(stmt.span))

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        label_head = self.new_label("for")
        label_body = self.new_label("forbody")
        label_step = self.new_label("forstep")
        label_end = self.new_label("endfor")
        self.place(label_head)
        self.emit(ir.SNop(stmt.span))
        if stmt.cond is not None:
            self.lower_cond(stmt.cond, label_body, label_end)
        self.place(label_body)
        self.emit(ir.SNop(stmt.span))
        self.loops.append((label_step, label_end))
        self.lower_stmt(stmt.body)
        self.loops.pop()
        self.place(label_step)
        self.emit(ir.SNop(stmt.span))
        if stmt.step is not None:
            self._lower_expr_stmt(ast.ExprStmt(expr=stmt.step, span=stmt.span))
        self.emit(ir.SGoto(label_head, stmt.span))
        self.place(label_end)
        self.emit(ir.SNop(stmt.span))

    def _lower_switch(self, stmt: ast.SwitchStmt) -> None:
        label_end = self.new_label("endswitch")
        case_labels = [self.new_label(f"case") for _ in stmt.cases]
        default_index: Optional[int] = None
        for index, case in enumerate(stmt.cases):
            if case.value is None:
                default_index = index

        scrutinee = stmt.scrutinee
        sum_call = (
            self._as_macro_call(scrutinee, TAG_VAL_MACROS)
            if isinstance(scrutinee, ast.Call)
            else None
        )
        int_call = (
            self._as_macro_call(scrutinee, INT_OF_VAL_MACROS)
            if isinstance(scrutinee, ast.Call)
            else None
        )
        if sum_call is not None or int_call is not None:
            call = sum_call or int_call
            assert call is not None
            var = self._value_var_for(call.args[0], stmt.span)
            for index, case in enumerate(stmt.cases):
                if case.value is None:
                    continue
                if sum_call is not None:
                    self.emit(
                        ir.SIfSumTag(var, case.value, case_labels[index], stmt.span)
                    )
                else:
                    self.emit(
                        ir.SIfIntTag(var, case.value, case_labels[index], stmt.span)
                    )
        else:
            lowered = self.lower_expr(scrutinee)
            if not isinstance(lowered, (ir.VarExp, ir.IntLit)):
                temp = self.new_temp(CSrcScalar("int"), stmt.span)
                self.emit(ir.SAssign(ir.VarExp(temp, stmt.span), lowered, stmt.span))
                lowered = ir.VarExp(temp, stmt.span)
            for index, case in enumerate(stmt.cases):
                if case.value is None:
                    continue
                self.emit(
                    ir.SIf(
                        ir.AOp(
                            "==",
                            lowered,
                            ir.IntLit(case.value, stmt.span),
                            stmt.span,
                        ),
                        case_labels[index],
                        stmt.span,
                    )
                )
        if default_index is not None:
            self.emit(ir.SGoto(case_labels[default_index], stmt.span))
        else:
            self.emit(ir.SGoto(label_end, stmt.span))
        self.loops.append((None, label_end))
        for index, case in enumerate(stmt.cases):
            self.place(case_labels[index])
            self.emit(ir.SNop(case.span))
            for item in case.body:
                self.lower_stmt(item)
        self.loops.pop()
        self.place(label_end)
        self.emit(ir.SNop(stmt.span))

    # -- entry point ---------------------------------------------------------------------

    def lower(self) -> ir.FunctionIR:
        assert self.func.body is not None
        for item in self.func.body.items:
            self.lower_stmt(item)
        if not self.stmts or not isinstance(
            self.stmts[-1], (ir.SReturn, ir.SCamlReturn, ir.SGoto)
        ):
            # make the implicit fall-off-the-end exit explicit
            self.emit(ir.SReturn(None, self.func.span))
        if self.pending_labels:
            self.emit(ir.SNop(self.func.span))
        return ir.FunctionIR(
            name=self.func.name,
            params=list(self.func.params),
            return_type=self.func.return_type,
            decls=self.decls,
            body=self.stmts,
            labels=self.labels,
            span=self.func.span,
            is_definition=True,
            polymorphic=self.func.polymorphic,
        )


def lower_unit(
    unit: ast.TranslationUnit,
    extra_returns: Optional[dict[str, CSrcType]] = None,
) -> ir.ProgramIR:
    """Lower a parsed translation unit to the Figure 5 IR."""
    symbols = SymbolTable.for_unit(unit, extra_returns)
    program = ir.ProgramIR()
    for func in unit.functions:
        if func.body is None:
            program.functions.append(
                ir.FunctionIR(
                    name=func.name,
                    params=list(func.params),
                    return_type=func.return_type,
                    span=func.span,
                    is_definition=False,
                    polymorphic=func.polymorphic,
                )
            )
            continue
        program.functions.append(FunctionLowerer(func, symbols).lower())
    for decl in unit.globals:
        program.globals.append(
            ir.VarDecl(name=decl.name, ctype=decl.ctype, init=None, span=decl.span)
        )
    return program
