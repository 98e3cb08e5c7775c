"""Knowledge base for the CPython C API, mirroring :mod:`repro.cfront.macros`.

Three tables live here:

* parse hints, so the shared C parser reads extension-module source
  (``PyObject *`` is the boxed-value type, ``PyMethodDef`` et al. are
  known opaque structs, ``NULL`` stays an identifier for the rewrite);
* the typing table for runtime entry points, in the shared
  :class:`~repro.cfront.macros.BuiltinSpec` language, seeding the
  checker's function environment exactly like the OCaml runtime table
  does.  Every
  entry is ``nogc``: CPython's collector neither moves objects nor frees
  owned references behind C's back, so the OCaml protection obligations
  never fire — the reference-count discipline is this dialect's analogue
  and has its own pass (:mod:`repro.pyext.refcount`);
* the reference-semantics classification (new vs borrowed results,
  reference-stealing parameters) that the refcount pass interprets.
"""

from __future__ import annotations

from ..cfront.macros import BuiltinSpec, return_types, spec_entries
from ..cfront.parser import ParseHints
from ..core.environment import Entry
from ..core.srctypes import CSrcPtr, CSrcScalar, CSrcStruct, CSrcType, CSrcValue
from ..core.types import CValue, fresh_mt
from ..seeds import seed_table

# -- parse hints ---------------------------------------------------------------

#: Typedefs the CPython headers would have provided.
_TYPEDEFS: dict[str, CSrcType] = {
    "PyObject": CSrcStruct("PyObject"),
    "PyTypeObject": CSrcStruct("PyTypeObject"),
    "PyMethodDef": CSrcStruct("PyMethodDef"),
    "PyModuleDef": CSrcStruct("PyModuleDef"),
    "PyModuleDef_Slot": CSrcStruct("PyModuleDef_Slot"),
    "PyMemberDef": CSrcStruct("PyMemberDef"),
    "PyGetSetDef": CSrcStruct("PyGetSetDef"),
    "PyCFunction": CSrcPtr(CSrcScalar("int")),
    "Py_ssize_t": CSrcScalar("int"),
    "Py_hash_t": CSrcScalar("int"),
    "uint64_t": CSrcScalar("int"),
    "int64_t": CSrcScalar("int"),
    "int32_t": CSrcScalar("int"),
    #: the macro expands to ``PyObject *`` (plus export goo)
    "PyMODINIT_FUNC": CSrcValue(),
}


@seed_table("pyext.parse_hints")
def parse_hints() -> ParseHints:
    """How to read CPython extension source with the shared parser.

    Memoized per process; :class:`ParseHints` is frozen and the parser
    copies the typedef table, so one instance serves every request.
    """
    return ParseHints(
        typedefs=dict(_TYPEDEFS),
        value_pointer_structs=frozenset({"PyObject"}),
        null_is_identifier=True,
    )


# -- runtime entry-point signatures --------------------------------------------

#: The CPython API surface extension glue actually uses, plus the
#: ``__pyext_*`` internals the rewrite introduces for varargs macros.
RUNTIME_FUNCTIONS: dict[str, BuiltinSpec] = {
    # rewrite targets (see repro.pyext.rewrite)
    "__pyext_null": BuiltinSpec((), "value"),
    "__pyext_none": BuiltinSpec((), "value"),
    "__pyext_is_null": BuiltinSpec(("value",), "int"),
    "__pyext_parse_args": BuiltinSpec(("value",), "int"),
    "__pyext_parse_args_kw": BuiltinSpec(("value", "value"), "int"),
    "__pyext_build_value": BuiltinSpec((), "value"),
    # reference counting
    "Py_INCREF": BuiltinSpec(("value",), "void"),
    "Py_DECREF": BuiltinSpec(("value",), "void"),
    "Py_XINCREF": BuiltinSpec(("value",), "void"),
    "Py_XDECREF": BuiltinSpec(("value",), "void"),
    "Py_CLEAR": BuiltinSpec(("value",), "void"),
    # scalar conversions
    "PyLong_FromLong": BuiltinSpec(("int",), "value"),
    "PyLong_FromSsize_t": BuiltinSpec(("int",), "value"),
    "PyLong_FromUnsignedLong": BuiltinSpec(("int",), "value"),
    "PyLong_AsLong": BuiltinSpec(("value",), "int"),
    "PyLong_AsSsize_t": BuiltinSpec(("value",), "int"),
    "PyLong_Check": BuiltinSpec(("value",), "int"),
    "PyFloat_FromDouble": BuiltinSpec(("int",), "value"),
    "PyFloat_AsDouble": BuiltinSpec(("value",), "int"),
    "PyFloat_Check": BuiltinSpec(("value",), "int"),
    "PyBool_FromLong": BuiltinSpec(("int",), "value"),
    # strings and bytes
    "PyUnicode_FromString": BuiltinSpec(("charptr",), "value"),
    "PyUnicode_AsUTF8": BuiltinSpec(("value",), "charptr"),
    "PyUnicode_Check": BuiltinSpec(("value",), "int"),
    "PyUnicode_Concat": BuiltinSpec(("value", "value"), "value"),
    "PyUnicode_GetLength": BuiltinSpec(("value",), "int"),
    "PyBytes_FromString": BuiltinSpec(("charptr",), "value"),
    "PyBytes_AsString": BuiltinSpec(("value",), "charptr"),
    "PyBytes_Size": BuiltinSpec(("value",), "int"),
    # tuples
    "PyTuple_New": BuiltinSpec(("int",), "value"),
    "PyTuple_Size": BuiltinSpec(("value",), "int"),
    "PyTuple_GetItem": BuiltinSpec(("value", "int"), "value"),
    "PyTuple_SetItem": BuiltinSpec(("value", "int", "value"), "int"),
    "PyTuple_Pack": BuiltinSpec(("int", "value"), "value"),
    # lists
    "PyList_New": BuiltinSpec(("int",), "value"),
    "PyList_Size": BuiltinSpec(("value",), "int"),
    "PyList_GetItem": BuiltinSpec(("value", "int"), "value"),
    "PyList_SetItem": BuiltinSpec(("value", "int", "value"), "int"),
    "PyList_Append": BuiltinSpec(("value", "value"), "int"),
    # dicts
    "PyDict_New": BuiltinSpec((), "value"),
    "PyDict_GetItem": BuiltinSpec(("value", "value"), "value"),
    "PyDict_GetItemString": BuiltinSpec(("value", "charptr"), "value"),
    "PyDict_SetItem": BuiltinSpec(("value", "value", "value"), "int"),
    "PyDict_SetItemString": BuiltinSpec(("value", "charptr", "value"), "int"),
    "PyDict_Size": BuiltinSpec(("value",), "int"),
    # generic object protocol
    "PyObject_CallObject": BuiltinSpec(("value", "value"), "value"),
    "PyObject_Call": BuiltinSpec(("value", "value", "value"), "value"),
    "PyObject_CallNoArgs": BuiltinSpec(("value",), "value"),
    "PyObject_CallOneArg": BuiltinSpec(("value", "value"), "value"),
    "PyObject_GetAttrString": BuiltinSpec(("value", "charptr"), "value"),
    "PyObject_SetAttrString": BuiltinSpec(("value", "charptr", "value"), "int"),
    "PyObject_Repr": BuiltinSpec(("value",), "value"),
    "PyObject_Str": BuiltinSpec(("value",), "value"),
    "PyObject_IsTrue": BuiltinSpec(("value",), "int"),
    "PyObject_Length": BuiltinSpec(("value",), "int"),
    "PyObject_Size": BuiltinSpec(("value",), "int"),
    "PyCallable_Check": BuiltinSpec(("value",), "int"),
    "PySequence_GetItem": BuiltinSpec(("value", "int"), "value"),
    "PySequence_Length": BuiltinSpec(("value",), "int"),
    "PyNumber_Add": BuiltinSpec(("value", "value"), "value"),
    "PyNumber_Multiply": BuiltinSpec(("value", "value"), "value"),
    "PyIter_Next": BuiltinSpec(("value",), "value"),
    # errors
    "PyErr_SetString": BuiltinSpec(("value", "charptr"), "void"),
    "PyErr_SetObject": BuiltinSpec(("value", "value"), "void"),
    "PyErr_Format": BuiltinSpec(("value", "charptr"), "value"),
    "PyErr_Occurred": BuiltinSpec((), "value"),
    "PyErr_Clear": BuiltinSpec((), "void"),
    "PyErr_NoMemory": BuiltinSpec((), "value"),
    # modules
    "PyModule_Create": BuiltinSpec(("moddef",), "value"),
    "PyModule_AddObject": BuiltinSpec(("value", "charptr", "value"), "int"),
    "PyModule_AddIntConstant": BuiltinSpec(("value", "charptr", "int"), "int"),
    "PyModule_AddStringConstant": BuiltinSpec(("value", "charptr", "charptr"), "int"),
    "PyModule_GetDict": BuiltinSpec(("value",), "value"),
    "PyImport_AddModule": BuiltinSpec(("charptr",), "value"),
    # memory
    "PyMem_Malloc": BuiltinSpec(("int",), "voidptr"),
    "PyMem_Free": BuiltinSpec(("voidptr",), "void"),
    # GIL bookkeeping commonly seen in glue
    "PyGILState_Ensure": BuiltinSpec((), "int"),
    "PyGILState_Release": BuiltinSpec(("int",), "void"),
}

#: Well-known runtime globals of value type, visible in every function.
GLOBAL_VALUES: tuple[str, ...] = (
    "Py_None",
    "Py_True",
    "Py_False",
    "Py_NotImplemented",
    "PyExc_TypeError",
    "PyExc_ValueError",
    "PyExc_RuntimeError",
    "PyExc_IndexError",
    "PyExc_KeyError",
    "PyExc_OverflowError",
    "PyExc_ZeroDivisionError",
    "PyExc_StopIteration",
    "PyExc_MemoryError",
)


# Per-process seed memos (PR 5): tables are built once, not per request.
# Sharing is safe because builtins are polymorphic (instantiated afresh at
# every call site) and variable bindings live in each run's own Unifier;
# callers must treat the returned mappings as read-only.


@seed_table("pyext.builtin_entries")
def builtin_entries() -> dict[str, Entry]:
    """The function-environment entries for every C-API entry point (memoized)."""
    return spec_entries(RUNTIME_FUNCTIONS)


@seed_table("pyext.global_entries")
def global_entries() -> dict[str, Entry]:
    """Bindings for the singleton/exception objects (memoized)."""
    return {name: Entry(CValue(fresh_mt())) for name in GLOBAL_VALUES}


#: Builtins whose types are instantiated afresh at every call site.
POLYMORPHIC_BUILTINS: frozenset[str] = frozenset(RUNTIME_FUNCTIONS)


@seed_table("pyext.lowering_return_types")
def lowering_return_types() -> dict[str, CSrcType]:
    """Static return types for the lowering's symbol table, so calls into
    the C API land in temporaries of the right surface type (memoized)."""
    return return_types(RUNTIME_FUNCTIONS)


# -- reference semantics -------------------------------------------------------

#: Functions returning a *new* (owned) reference the caller must release.
NEW_REF_FUNCTIONS: frozenset[str] = frozenset(
    {
        "PyLong_FromLong",
        "PyLong_FromSsize_t",
        "PyLong_FromUnsignedLong",
        "PyFloat_FromDouble",
        "PyBool_FromLong",
        "PyUnicode_FromString",
        "PyUnicode_Concat",
        "PyBytes_FromString",
        "PyTuple_New",
        "PyTuple_Pack",
        "PyList_New",
        "PyDict_New",
        "PyObject_CallObject",
        "PyObject_Call",
        "PyObject_CallNoArgs",
        "PyObject_CallOneArg",
        "PyObject_GetAttrString",
        "PyObject_Repr",
        "PyObject_Str",
        "PySequence_GetItem",
        "PyNumber_Add",
        "PyNumber_Multiply",
        "PyIter_Next",
        "Py_BuildValue",
        "PyModule_Create",
    }
)

#: Functions returning a *borrowed* reference (do not DECREF, INCREF to keep).
BORROWED_REF_FUNCTIONS: frozenset[str] = frozenset(
    {
        "PyTuple_GetItem",
        "PyList_GetItem",
        "PyDict_GetItem",
        "PyDict_GetItemString",
        "PyErr_Occurred",
        "PyModule_GetDict",
        "PyImport_AddModule",
    }
)

#: Functions that *steal* a reference: name -> stolen argument index.
STEALS_REFERENCE: dict[str, int] = {
    "PyTuple_SetItem": 2,
    "PyList_SetItem": 2,
    "PyModule_AddObject": 2,
}

#: INCREF/DECREF spellings the refcount pass interprets.
INCREF_FUNCTIONS: frozenset[str] = frozenset({"Py_INCREF", "Py_XINCREF"})
DECREF_FUNCTIONS: frozenset[str] = frozenset(
    {"Py_DECREF", "Py_XDECREF", "Py_CLEAR"}
)

#: Statement macros `Py_RETURN_x;` — sugar for INCREF-and-return.
RETURN_MACROS: frozenset[str] = frozenset(
    {"Py_RETURN_NONE", "Py_RETURN_TRUE", "Py_RETURN_FALSE", "Py_RETURN_NOTIMPLEMENTED"}
)
