"""Static checking of ``PyArg_ParseTuple`` / ``Py_BuildValue`` format strings.

A format string is a little type signature in disguise: ``"ii"`` promises
the runtime two C ``int *`` output slots, ``"s"`` a ``char **``, ``"O"`` a
``PyObject **``.  The C compiler cannot see through the varargs, so a
format/argument mismatch scribbles over the wrong amount of stack — the
CPython twin of the ``Int_val``/``Val_int`` confusions the paper checks.

The checker is syntactic and flow-insensitive: for every call with a
literal format we compute the expected argument classes and compare them
with the *declared* C types of the supplied arguments (``&var`` patterns
and plain variables; anything fancier is skipped, never guessed at).
Unknown format characters disable checking of the whole call rather than
risk a false report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cfront import ast
from ..cfront.idioms import DeclaredTypes
from ..diagnostics import Diagnostic, Kind
from ..core.srctypes import CSrcPtr, CSrcScalar, CSrcType, CSrcValue

#: expected-argument classes
SCALAR = "scalar"  # int*/long*/double* target (ParseTuple) or scalar expr
CHARPTR = "charptr"  # char** target (ParseTuple) or char* expr
VALUE = "value"  # PyObject** target (ParseTuple) or PyObject* expr
ANY = "any"  # converter functions, type objects, buffers: unchecked


@dataclass(frozen=True)
class FormatUnit:
    """One converted argument: its format code and expected class."""

    code: str
    expect: str


_PARSE_SCALAR = set("bBhHiIlkLKnfdpcC")
_PARSE_CHARPTR = set("szyuZ")
_PARSE_VALUE = set("OSUY")

_BUILD_SCALAR = set("bBhHiIlkLKnfdpcC")
_BUILD_CHARPTR = set("szyuU")
_BUILD_VALUE = set("ONS")
_BUILD_NESTING = set("()[]{},")


def parse_tuple_units(fmt: str) -> Optional[list[FormatUnit]]:
    """Units of a ``PyArg_ParseTuple`` format; ``None`` = don't check."""
    units: list[FormatUnit] = []
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch in ":;":
            break  # the rest names the function in error messages
        if ch in "|$() ":
            i += 1
            continue
        if ch == "e":  # es / et (+ optional #): encoding, then buffer
            units.append(FormatUnit(fmt[i : i + 2], ANY))
            units.append(FormatUnit(fmt[i : i + 2], CHARPTR))
            i += 2
            if i < len(fmt) and fmt[i] == "#":
                units.append(FormatUnit("#", SCALAR))
                i += 1
            continue
        if ch == "O":
            if i + 1 < len(fmt) and fmt[i + 1] == "!":
                units.append(FormatUnit("O!", ANY))  # the PyTypeObject *
                units.append(FormatUnit("O!", VALUE))
                i += 2
                continue
            if i + 1 < len(fmt) and fmt[i + 1] == "&":
                units.append(FormatUnit("O&", ANY))  # the converter
                units.append(FormatUnit("O&", ANY))  # its void* box
                i += 2
                continue
            units.append(FormatUnit("O", VALUE))
            i += 1
            continue
        if ch in _PARSE_CHARPTR:
            code = ch
            if i + 1 < len(fmt) and fmt[i + 1] == "*":
                units.append(FormatUnit(ch + "*", ANY))  # Py_buffer
                i += 2
                continue
            units.append(FormatUnit(code, CHARPTR))
            i += 1
            if i < len(fmt) and fmt[i] == "#":
                units.append(FormatUnit("#", SCALAR))
                i += 1
            continue
        if ch in _PARSE_SCALAR:
            units.append(FormatUnit(ch, SCALAR))
            i += 1
            continue
        if ch in _PARSE_VALUE:
            units.append(FormatUnit(ch, VALUE))
            i += 1
            continue
        return None  # unknown code: never guess
    return units


def build_value_units(fmt: str) -> Optional[list[FormatUnit]]:
    """Units of a ``Py_BuildValue`` format; ``None`` = don't check."""
    units: list[FormatUnit] = []
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch in ":;":
            break
        if ch in _BUILD_NESTING or ch == " ":
            i += 1
            continue
        if ch == "O" and i + 1 < len(fmt) and fmt[i + 1] == "&":
            units.append(FormatUnit("O&", ANY))
            units.append(FormatUnit("O&", ANY))
            i += 2
            continue
        if ch in _BUILD_CHARPTR:
            units.append(FormatUnit(ch, CHARPTR))
            i += 1
            if i < len(fmt) and fmt[i] == "#":
                units.append(FormatUnit("#", SCALAR))
                i += 1
            continue
        if ch in _BUILD_SCALAR:
            units.append(FormatUnit(ch, SCALAR))
            i += 1
            continue
        if ch in _BUILD_VALUE:
            units.append(FormatUnit(ch, VALUE))
            i += 1
            continue
        return None
    return units


def _classify(ctype: CSrcType) -> str:
    if isinstance(ctype, CSrcValue):
        return VALUE
    if isinstance(ctype, CSrcScalar):
        return SCALAR
    if isinstance(ctype, CSrcPtr) and isinstance(ctype.target, CSrcScalar):
        return CHARPTR
    return ANY


class _VarTypes(DeclaredTypes):
    """Declared types of a function's parameters and locals."""

    def target_class(self, arg: ast.CExpr) -> Optional[str]:
        """Class of what ``arg`` points at, for an output-pointer slot."""
        if isinstance(arg, ast.Unary) and arg.op == "&":
            operand = arg.operand
            if isinstance(operand, ast.Name):
                ctype = self.types.get(operand.ident)
                return None if ctype is None else _classify(ctype)
            return None
        if isinstance(arg, ast.Name):
            ctype = self.types.get(arg.ident)
            if isinstance(ctype, CSrcPtr):
                return _classify(ctype.target)
        return None

    def value_class(self, arg: ast.CExpr) -> Optional[str]:
        """Class of ``arg`` itself, for a ``Py_BuildValue`` slot."""
        if isinstance(arg, ast.Name):
            ctype = self.types.get(arg.ident)
            return None if ctype is None else _classify(ctype)
        if isinstance(arg, (ast.Num, ast.Binary, ast.Unary)):
            return SCALAR
        if isinstance(arg, ast.Str):
            return CHARPTR
        return None


_EXPECT_NOUN = {
    SCALAR: "a C scalar",
    CHARPTR: "a C string (char *)",
    VALUE: "a PyObject *",
}


def _describe(arg: ast.CExpr) -> str:
    if (
        isinstance(arg, ast.Unary)
        and arg.op == "&"
        and isinstance(arg.operand, ast.Name)
    ):
        return f"&{arg.operand.ident}"
    if isinstance(arg, ast.Name):
        return arg.ident
    return "<expression>"


def _check_parse_call(
    call: ast.Call,
    fmt: str,
    converted: tuple[ast.CExpr, ...],
    vars: _VarTypes,
    function: str,
    callee: str,
    diags: list[Diagnostic],
) -> None:
    units = parse_tuple_units(fmt)
    if units is None:
        return
    if len(units) != len(converted):
        diags.append(
            Diagnostic(
                kind=Kind.PY_FORMAT_MISMATCH,
                span=call.span,
                message=(
                    f"`{callee}` format \"{fmt}\" converts "
                    f"{len(units)} argument(s) but {len(converted)} output "
                    f"pointer(s) are supplied; the runtime will write "
                    f"through stack garbage"
                ),
                function=function,
            )
        )
        return
    for index, (unit, arg) in enumerate(zip(units, converted)):
        if unit.expect is ANY:
            continue
        actual = vars.target_class(arg)
        if actual is None or actual is ANY or actual == unit.expect:
            continue
        diags.append(
            Diagnostic(
                kind=Kind.PY_FORMAT_MISMATCH,
                span=call.span,
                message=(
                    f"`{callee}` format unit '{unit.code}' (argument "
                    f"{index + 1}) writes {_EXPECT_NOUN[unit.expect]} but "
                    f"`{_describe(arg)}` points to {_EXPECT_NOUN[actual]}"
                ),
                function=function,
            )
        )


def _check_build_call(
    call: ast.Call,
    fmt: str,
    supplied: tuple[ast.CExpr, ...],
    vars: _VarTypes,
    function: str,
    diags: list[Diagnostic],
) -> None:
    units = build_value_units(fmt)
    if units is None:
        return
    if len(units) != len(supplied):
        diags.append(
            Diagnostic(
                kind=Kind.PY_FORMAT_MISMATCH,
                span=call.span,
                message=(
                    f"`Py_BuildValue` format \"{fmt}\" consumes "
                    f"{len(units)} argument(s) but {len(supplied)} are "
                    f"supplied"
                ),
                function=function,
            )
        )
        return
    for index, (unit, arg) in enumerate(zip(units, supplied)):
        if unit.expect is ANY:
            continue
        actual = vars.value_class(arg)
        if actual is None or actual is ANY or actual == unit.expect:
            continue
        diags.append(
            Diagnostic(
                kind=Kind.PY_FORMAT_MISMATCH,
                span=call.span,
                message=(
                    f"`Py_BuildValue` format unit '{unit.code}' (argument "
                    f"{index + 1}) consumes {_EXPECT_NOUN[unit.expect]} but "
                    f"`{_describe(arg)}` is {_EXPECT_NOUN[actual]}"
                ),
                function=function,
            )
        )


#: parser entry points: name -> index of the format argument (converted
#: output pointers follow it)
_PARSE_ENTRY_POINTS = {
    "PyArg_ParseTuple": 1,
    "PyArg_ParseTupleAndKeywords": 2,
}

_BUILD_ENTRY_POINTS = {"Py_BuildValue": 0}


def _walk_exprs(node: ast.CExpr, out: list[ast.Call]) -> None:
    if isinstance(node, ast.Call):
        out.append(node)
        for arg in node.args:
            _walk_exprs(arg, out)
        _walk_exprs(node.func, out)
    elif isinstance(node, ast.Unary):
        _walk_exprs(node.operand, out)
    elif isinstance(node, ast.Binary):
        _walk_exprs(node.left, out)
        _walk_exprs(node.right, out)
    elif isinstance(node, ast.Conditional):
        _walk_exprs(node.cond, out)
        _walk_exprs(node.then, out)
        _walk_exprs(node.other, out)
    elif isinstance(node, ast.Cast):
        _walk_exprs(node.operand, out)
    elif isinstance(node, ast.Index):
        _walk_exprs(node.base, out)
        _walk_exprs(node.index, out)
    elif isinstance(node, ast.Member):
        _walk_exprs(node.base, out)
    elif isinstance(node, ast.Assign):
        _walk_exprs(node.target, out)
        _walk_exprs(node.value, out)
    elif isinstance(node, ast.IncDec):
        _walk_exprs(node.target, out)


def _walk_stmts(stmt: ast.CStmtOrDecl, out: list[ast.Call]) -> None:
    if isinstance(stmt, ast.Declaration):
        if stmt.init is not None and not isinstance(stmt.init, ast.InitList):
            _walk_exprs(stmt.init, out)
    elif isinstance(stmt, ast.Block):
        for item in stmt.items:
            _walk_stmts(item, out)
    elif isinstance(stmt, ast.ExprStmt):
        _walk_exprs(stmt.expr, out)
    elif isinstance(stmt, ast.IfStmt):
        _walk_exprs(stmt.cond, out)
        _walk_stmts(stmt.then, out)
        if stmt.other is not None:
            _walk_stmts(stmt.other, out)
    elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
        _walk_exprs(stmt.cond, out)
        _walk_stmts(stmt.body, out)
    elif isinstance(stmt, ast.ForStmt):
        if stmt.init is not None:
            _walk_stmts(stmt.init, out)
        if stmt.cond is not None:
            _walk_exprs(stmt.cond, out)
        if stmt.step is not None:
            _walk_exprs(stmt.step, out)
        _walk_stmts(stmt.body, out)
    elif isinstance(stmt, ast.SwitchStmt):
        _walk_exprs(stmt.scrutinee, out)
        for case in stmt.cases:
            for item in case.body:
                _walk_stmts(item, out)
    elif isinstance(stmt, ast.ReturnStmt):
        if stmt.value is not None:
            _walk_exprs(stmt.value, out)
    elif isinstance(stmt, ast.LabeledStmt):
        _walk_stmts(stmt.stmt, out)


def check_unit(unit: ast.TranslationUnit) -> list[Diagnostic]:
    """All format-string diagnostics for one translation unit."""
    diags: list[Diagnostic] = []
    for fn in unit.functions:
        if fn.body is None:
            continue
        vars = _VarTypes(fn)
        calls: list[ast.Call] = []
        _walk_stmts(fn.body, calls)
        for call in calls:
            if not isinstance(call.func, ast.Name):
                continue
            name = call.func.ident
            if name in _PARSE_ENTRY_POINTS:
                fmt_index = _PARSE_ENTRY_POINTS[name]
                if len(call.args) <= fmt_index:
                    continue
                fmt_arg = call.args[fmt_index]
                if not isinstance(fmt_arg, ast.Str):
                    continue
                converted = call.args[fmt_index + 1 :]
                if name == "PyArg_ParseTupleAndKeywords":
                    # the kwlist pointer sits between format and outputs
                    converted = converted[1:]
                _check_parse_call(
                    call, fmt_arg.value, converted, vars, fn.name, name, diags
                )
            elif name in _BUILD_ENTRY_POINTS:
                fmt_index = _BUILD_ENTRY_POINTS[name]
                if len(call.args) <= fmt_index:
                    continue
                fmt_arg = call.args[fmt_index]
                if not isinstance(fmt_arg, ast.Str):
                    continue
                _check_build_call(
                    call,
                    fmt_arg.value,
                    call.args[fmt_index + 1 :],
                    vars,
                    fn.name,
                    diags,
                )
    return diags
