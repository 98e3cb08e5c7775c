"""Surface AST for the C subset understood by the front end.

This is what :mod:`repro.cfront.parser` produces and what
:mod:`repro.cfront.lower` compiles into the Figure 5 IR.  It mirrors the C
glue-code idiom: functions, scalar/pointer/struct types, structured control
flow, and the OCaml FFI macros as ordinary-looking calls (recognized later
by the lowering).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..core.srctypes import CSrcType
from ..source import DUMMY_SPAN, Span
from .node import FrozenNode, Node, init_field


# -- expressions -------------------------------------------------------------


class Num(FrozenNode):
    __slots__ = ("value", "span")

    def __init__(self, value: int, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "value", value)
        init_field(self, "span", span)


class Str(FrozenNode):
    __slots__ = ("value", "span")

    def __init__(self, value: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "value", value)
        init_field(self, "span", span)


class Name(FrozenNode):
    __slots__ = ("ident", "span")

    def __init__(self, ident: str, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "ident", ident)
        init_field(self, "span", span)


class Unary(FrozenNode):
    __slots__ = ("op", "operand", "span")

    def __init__(self, op: str, operand: "CExpr", span: Span = DUMMY_SPAN) -> None:
        init_field(self, "op", op)  # ! ~ - * &
        init_field(self, "operand", operand)
        init_field(self, "span", span)


class Binary(FrozenNode):
    __slots__ = ("op", "left", "right", "span")

    def __init__(
        self, op: str, left: "CExpr", right: "CExpr", span: Span = DUMMY_SPAN
    ) -> None:
        init_field(self, "op", op)
        init_field(self, "left", left)
        init_field(self, "right", right)
        init_field(self, "span", span)


class Conditional(FrozenNode):
    __slots__ = ("cond", "then", "other", "span")

    def __init__(
        self, cond: "CExpr", then: "CExpr", other: "CExpr", span: Span = DUMMY_SPAN
    ) -> None:
        init_field(self, "cond", cond)
        init_field(self, "then", then)
        init_field(self, "other", other)
        init_field(self, "span", span)


class Cast(FrozenNode):
    __slots__ = ("ctype", "operand", "span")

    def __init__(
        self, ctype: CSrcType, operand: "CExpr", span: Span = DUMMY_SPAN
    ) -> None:
        init_field(self, "ctype", ctype)
        init_field(self, "operand", operand)
        init_field(self, "span", span)


class Call(FrozenNode):
    __slots__ = ("func", "args", "span")

    def __init__(
        self, func: "CExpr", args: Tuple["CExpr", ...], span: Span = DUMMY_SPAN
    ) -> None:
        init_field(self, "func", func)
        init_field(self, "args", args)
        init_field(self, "span", span)


class Index(FrozenNode):
    __slots__ = ("base", "index", "span")

    def __init__(self, base: "CExpr", index: "CExpr", span: Span = DUMMY_SPAN) -> None:
        init_field(self, "base", base)
        init_field(self, "index", index)
        init_field(self, "span", span)


class Member(FrozenNode):
    __slots__ = ("base", "field_name", "arrow", "span")

    def __init__(
        self, base: "CExpr", field_name: str, arrow: bool, span: Span = DUMMY_SPAN
    ) -> None:
        init_field(self, "base", base)
        init_field(self, "field_name", field_name)
        init_field(self, "arrow", arrow)
        init_field(self, "span", span)


class SizeOf(FrozenNode):
    """``sizeof(type)`` or ``sizeof expr`` — folded to the word size."""

    __slots__ = ("span",)

    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        init_field(self, "span", span)


class Assign(FrozenNode):
    """``lhs op= rhs`` as an expression (op is '' for plain assignment)."""

    __slots__ = ("op", "target", "value", "span")

    def __init__(
        self, op: str, target: "CExpr", value: "CExpr", span: Span = DUMMY_SPAN
    ) -> None:
        init_field(self, "op", op)
        init_field(self, "target", target)
        init_field(self, "value", value)
        init_field(self, "span", span)


class IncDec(FrozenNode):
    """``x++ / ++x / x-- / --x``."""

    __slots__ = ("op", "target", "span")

    def __init__(self, op: str, target: "CExpr", span: Span = DUMMY_SPAN) -> None:
        init_field(self, "op", op)  # '++' or '--'
        init_field(self, "target", target)
        init_field(self, "span", span)


class InitItem(FrozenNode):
    """One element of a brace initializer, optionally designated."""

    __slots__ = ("value", "field_name")

    def __init__(self, value: "CExpr", field_name: Optional[str] = None) -> None:
        init_field(self, "value", value)
        init_field(self, "field_name", field_name)


class InitList(FrozenNode):
    """A brace initializer ``{ e, .f = e, { ... }, ... }``.

    The analysis does not evaluate these (aggregate initialization is
    outside the Figure 5 IR); they exist so declaration-level tables —
    ``PyMethodDef`` method tables, ``PyModuleDef`` records, static arrays —
    survive parsing and can be read by dialect front-ends.
    """

    __slots__ = ("items", "span")

    def __init__(
        self, items: Tuple["InitItem", ...] = (), span: Span = DUMMY_SPAN
    ) -> None:
        init_field(self, "items", items)
        init_field(self, "span", span)


CExpr = Union[
    Num, Str, Name, Unary, Binary, Conditional, Cast, Call, Index, Member,
    SizeOf, Assign, IncDec, InitList,
]


# -- statements ----------------------------------------------------------------


class Block(Node):
    __slots__ = ("items", "span")

    def __init__(
        self, items: Optional[list["CStmtOrDecl"]] = None, span: Span = DUMMY_SPAN
    ) -> None:
        self.items = [] if items is None else items
        self.span = span


class ExprStmt(Node):
    __slots__ = ("expr", "span")

    def __init__(self, expr: CExpr, span: Span = DUMMY_SPAN) -> None:
        self.expr = expr
        self.span = span


class IfStmt(Node):
    __slots__ = ("cond", "then", "other", "span")

    def __init__(
        self,
        cond: CExpr,
        then: "CStmt",
        other: Optional["CStmt"],
        span: Span = DUMMY_SPAN,
    ) -> None:
        self.cond = cond
        self.then = then
        self.other = other
        self.span = span


class WhileStmt(Node):
    __slots__ = ("cond", "body", "span")

    def __init__(self, cond: CExpr, body: "CStmt", span: Span = DUMMY_SPAN) -> None:
        self.cond = cond
        self.body = body
        self.span = span


class DoWhileStmt(Node):
    __slots__ = ("body", "cond", "span")

    def __init__(self, body: "CStmt", cond: CExpr, span: Span = DUMMY_SPAN) -> None:
        self.body = body
        self.cond = cond
        self.span = span


class ForStmt(Node):
    __slots__ = ("init", "cond", "step", "body", "span")

    def __init__(
        self,
        init: Optional["CStmtOrDecl"],
        cond: Optional[CExpr],
        step: Optional[CExpr],
        body: "CStmt",
        span: Span = DUMMY_SPAN,
    ) -> None:
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body
        self.span = span


class SwitchCase(Node):
    __slots__ = ("value", "body", "span")

    def __init__(
        self, value: Optional[int], body: list["CStmtOrDecl"], span: Span = DUMMY_SPAN
    ) -> None:
        self.value = value  # None for default
        self.body = body
        self.span = span


class SwitchStmt(Node):
    __slots__ = ("scrutinee", "cases", "span")

    def __init__(
        self, scrutinee: CExpr, cases: list[SwitchCase], span: Span = DUMMY_SPAN
    ) -> None:
        self.scrutinee = scrutinee
        self.cases = cases
        self.span = span


class ReturnStmt(Node):
    __slots__ = ("value", "span")

    def __init__(self, value: Optional[CExpr], span: Span = DUMMY_SPAN) -> None:
        self.value = value
        self.span = span


class GotoStmt(Node):
    __slots__ = ("label", "span")

    def __init__(self, label: str, span: Span = DUMMY_SPAN) -> None:
        self.label = label
        self.span = span


class LabeledStmt(Node):
    __slots__ = ("label", "stmt", "span")

    def __init__(self, label: str, stmt: "CStmt", span: Span = DUMMY_SPAN) -> None:
        self.label = label
        self.stmt = stmt
        self.span = span


class BreakStmt(Node):
    __slots__ = ("span",)

    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        self.span = span


class ContinueStmt(Node):
    __slots__ = ("span",)

    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        self.span = span


class EmptyStmt(Node):
    __slots__ = ("span",)

    def __init__(self, span: Span = DUMMY_SPAN) -> None:
        self.span = span


CStmt = Union[
    Block, ExprStmt, IfStmt, WhileStmt, DoWhileStmt, ForStmt, SwitchStmt,
    ReturnStmt, GotoStmt, LabeledStmt, BreakStmt, ContinueStmt, EmptyStmt,
]


class Declaration(Node):
    """``ctype name = init;`` — one declarator per Declaration node."""

    __slots__ = ("name", "ctype", "init", "span")

    def __init__(
        self, name: str, ctype: CSrcType, init: Optional[CExpr], span: Span = DUMMY_SPAN
    ) -> None:
        self.name = name
        self.ctype = ctype
        self.init = init
        self.span = span


CStmtOrDecl = Union[CStmt, Declaration]


# -- top level --------------------------------------------------------------------


class FunctionDef(Node):
    __slots__ = ("name", "return_type", "params", "body", "span", "polymorphic")

    def __init__(
        self,
        name: str,
        return_type: CSrcType,
        params: list[tuple[str, CSrcType]],
        body: Optional[Block],
        span: Span = DUMMY_SPAN,
        polymorphic: bool = False,
    ) -> None:
        self.name = name
        self.return_type = return_type
        self.params = params
        self.body = body  # None for prototypes
        self.span = span
        #: ``/*@ polymorphic @*/`` annotation (paper §5.1 hand annotations)
        self.polymorphic = polymorphic


class GlobalDecl(Node):
    __slots__ = ("name", "ctype", "init", "span")

    def __init__(
        self, name: str, ctype: CSrcType, init: Optional[CExpr], span: Span = DUMMY_SPAN
    ) -> None:
        self.name = name
        self.ctype = ctype
        self.init = init
        self.span = span


class TranslationUnit(Node):
    __slots__ = ("functions", "globals", "filename")

    def __init__(
        self,
        functions: Optional[list[FunctionDef]] = None,
        globals: Optional[list[GlobalDecl]] = None,
        filename: str = "<unknown>",
    ) -> None:
        self.functions = [] if functions is None else functions
        self.globals = [] if globals is None else globals
        self.filename = filename
