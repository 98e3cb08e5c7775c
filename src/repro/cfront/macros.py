"""Knowledge base for the OCaml FFI macros and runtime entry points.

The lowering recognizes the macro family of ``caml/mlvalues.h`` and
``caml/memory.h`` syntactically (the paper's tool does the same via pattern
matching on CIL, §5.1), and the checker seeds its function environment with
the runtime's entry points, each carrying its GC effect.  Allocation,
callback and exception-raising functions may trigger a collection; pure
accessors may not.  The spec language the table is written in
(:class:`BuiltinSpec`) is shared with the pyext and jni runtime tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.environment import Entry
from ..seeds import seed_table
from ..core.srctypes import (
    CSrcPtr,
    CSrcScalar,
    CSrcStruct,
    CSrcType,
    CSrcValue,
    CSrcVoid,
)
from ..core.types import (
    C_INT,
    C_VOID,
    CFun,
    CPtr,
    CStruct,
    CType,
    CValue,
    GC,
    GCEffect,
    MTCustom,
    NOGC,
    fresh_ctvar,
    fresh_mt,
)

# -- value-constant macros ----------------------------------------------------

#: Object-like macros that expand to ``Val_int(n)``.
VALUE_CONSTANTS: dict[str, int] = {
    "Val_unit": 0,
    "Val_false": 0,
    "Val_true": 1,
    "Val_none": 0,
    "Val_emptylist": 0,
    "Val_int_zero": 0,
}

#: Macros equivalent to ``Val_int`` / ``Int_val`` respectively.
VAL_OF_INT_MACROS = {"Val_int", "Val_long", "Val_bool"}
INT_OF_VAL_MACROS = {"Int_val", "Long_val", "Bool_val"}

#: Dynamic test macros (paper Figure 5 primitives).
IS_LONG_MACROS = {"Is_long"}
IS_BLOCK_MACROS = {"Is_block"}
TAG_VAL_MACROS = {"Tag_val"}

#: Structured-block access macros.
FIELD_MACROS = {"Field"}
STORE_FIELD_MACROS = {"Store_field"}

#: GC registration macros: name -> number of registered variables
#: (None means "count the arguments").
CAMLPARAM_MACROS = {
    "CAMLparam0": 0,
    "CAMLparam1": 1,
    "CAMLparam2": 2,
    "CAMLparam3": 3,
    "CAMLparam4": 4,
    "CAMLparam5": 5,
    "CAMLxparam1": 1,
    "CAMLxparam2": 2,
    "CAMLxparam3": 3,
    "CAMLxparam4": 4,
    "CAMLxparam5": 5,
}
CAMLLOCAL_MACROS = {
    "CAMLlocal1": 1,
    "CAMLlocal2": 2,
    "CAMLlocal3": 3,
    "CAMLlocal4": 4,
    "CAMLlocal5": 5,
}
CAMLRETURN_MACROS = {"CAMLreturn", "CAMLreturnT"}
CAMLRETURN0_MACROS = {"CAMLreturn0"}


# -- runtime entry point signatures ---------------------------------------------


@dataclass(frozen=True)
class BuiltinSpec:
    """Shape of one runtime function, in the spec language every dialect's
    runtime table is written in.

    Parameter/result kinds:
      ``value``     fresh ``α value`` (instantiated per call site)
      ``int``       C scalar
      ``charptr``   ``char *``
      ``voidptr``   generic pointer (modelled as ``int *``)
      ``valueptr``  ``value *`` (registered roots; ``PyObject **``)
      ``string``    a ``caml_string`` custom block value
      ``float``     a ``caml_float`` custom block value
      ``int32/int64/nativeint``  their custom block values
      ``moddef``    ``struct PyModuleDef *``
      ``methodid``/``fieldid``  JNI's opaque ``jmethodID``/``jfieldID``
      ``any``       a fresh C type variable: unifies with anything (JNI
                    out-parameters like ``jboolean *isCopy`` that glue
                    passes NULL to)
      ``void``      (result only)

    ``effect`` defaults to ``nogc``, the effect of every pyext and jni
    entry point.
    """

    params: tuple[str, ...]
    result: str
    effect: GCEffect = NOGC


#: kinds that are pointers to a named struct -> that struct
_STRUCT_POINTERS: dict[str, str] = {
    "moddef": "PyModuleDef",
    "methodid": "jmethodID",
    "fieldid": "jfieldID",
}


def _kind_to_ct(kind: str) -> CType:
    if kind == "value":
        return CValue(fresh_mt())
    if kind == "int":
        return C_INT
    if kind == "charptr" or kind == "voidptr":
        return CPtr(C_INT)
    if kind == "valueptr":
        return CPtr(CValue(fresh_mt()))
    if kind in ("string", "float", "int32", "int64", "nativeint"):
        return CValue(MTCustom(CPtr(CStruct(f"caml_{kind}" if kind != "string" else "caml_string"))))
    if kind in _STRUCT_POINTERS:
        return CPtr(CStruct(_STRUCT_POINTERS[kind]))
    if kind == "any":
        return fresh_ctvar()
    if kind == "void":
        return C_VOID
    raise ValueError(f"unknown builtin kind `{kind}`")


def _kind_to_src(kind: str) -> CSrcType:
    if kind in ("value", "string", "float", "int32", "int64", "nativeint"):
        return CSrcValue()
    if kind == "int":
        return CSrcScalar("int")
    if kind in ("charptr", "voidptr", "any"):
        return CSrcPtr(CSrcScalar("char"))
    if kind == "valueptr":
        return CSrcPtr(CSrcValue())
    if kind in _STRUCT_POINTERS:
        return CSrcPtr(CSrcStruct(_STRUCT_POINTERS[kind]))
    if kind == "void":
        return CSrcVoid()
    raise ValueError(kind)


def spec_to_cfun(spec: BuiltinSpec) -> CFun:
    """Materialize a spec with fresh type variables."""
    return CFun(
        params=tuple(_kind_to_ct(k) for k in spec.params),
        result=_kind_to_ct(spec.result),
        effect=spec.effect,
    )


def spec_entries(table: dict[str, BuiltinSpec]) -> dict[str, Entry]:
    """The function-environment entry of every spec in ``table``."""
    return {name: Entry(spec_to_cfun(spec)) for name, spec in table.items()}


def return_types(table: dict[str, BuiltinSpec]) -> dict[str, CSrcType]:
    """Surface return types for the lowering's symbol table, so calls
    into the runtime land in temporaries of the right surface type."""
    return {name: _kind_to_src(spec.result) for name, spec in table.items()}


def param_types(table: dict[str, BuiltinSpec]) -> dict[str, list[CSrcType]]:
    """Surface parameter types, for the lowering's symbol table."""
    return {
        name: [_kind_to_src(k) for k in spec.params] for name, spec in table.items()
    }


#: The OCaml runtime API surface used by glue code.  Allocators, callbacks
#: and raisers are ``gc``; accessors and root registration are ``nogc``.
RUNTIME_FUNCTIONS: dict[str, BuiltinSpec] = {
    # allocation
    "caml_alloc": BuiltinSpec(("int", "int"), "value", GC),
    "caml_alloc_small": BuiltinSpec(("int", "int"), "value", GC),
    "caml_alloc_tuple": BuiltinSpec(("int",), "value", GC),
    "caml_alloc_string": BuiltinSpec(("int",), "string", GC),
    "caml_alloc_custom": BuiltinSpec(("voidptr", "int", "int", "int"), "value", GC),
    "caml_copy_string": BuiltinSpec(("charptr",), "string", GC),
    "caml_copy_double": BuiltinSpec(("int",), "float", GC),
    "caml_copy_int32": BuiltinSpec(("int",), "int32", GC),
    "caml_copy_int64": BuiltinSpec(("int",), "int64", GC),
    "caml_copy_nativeint": BuiltinSpec(("int",), "nativeint", GC),
    # legacy (pre-3.08) unprefixed aliases still common in 2004-era glue
    "alloc": BuiltinSpec(("int", "int"), "value", GC),
    "alloc_small": BuiltinSpec(("int", "int"), "value", GC),
    "alloc_tuple": BuiltinSpec(("int",), "value", GC),
    "copy_string": BuiltinSpec(("charptr",), "string", GC),
    "copy_double": BuiltinSpec(("int",), "float", GC),
    # callbacks re-enter the mutator: anything can happen, including GC
    "caml_callback": BuiltinSpec(("value", "value"), "value", GC),
    "caml_callback2": BuiltinSpec(("value", "value", "value"), "value", GC),
    "caml_callback3": BuiltinSpec(("value", "value", "value", "value"), "value", GC),
    "caml_callback_exn": BuiltinSpec(("value", "value"), "value", GC),
    # exceptions allocate their payload
    "caml_failwith": BuiltinSpec(("charptr",), "void", GC),
    "caml_invalid_argument": BuiltinSpec(("charptr",), "void", GC),
    "caml_raise_out_of_memory": BuiltinSpec((), "void", GC),
    "caml_raise_not_found": BuiltinSpec((), "void", GC),
    "failwith": BuiltinSpec(("charptr",), "void", GC),
    "invalid_argument": BuiltinSpec(("charptr",), "void", GC),
    # accessors — no allocation
    "caml_string_length": BuiltinSpec(("string",), "int", NOGC),
    "string_length": BuiltinSpec(("string",), "int", NOGC),
    "caml_string_val": BuiltinSpec(("string",), "charptr", NOGC),
    "caml_double_val": BuiltinSpec(("float",), "int", NOGC),
    "caml_int32_val": BuiltinSpec(("int32",), "int", NOGC),
    "caml_int64_val": BuiltinSpec(("int64",), "int", NOGC),
    "caml_nativeint_val": BuiltinSpec(("nativeint",), "int", NOGC),
    "caml_wosize_val": BuiltinSpec(("value",), "int", NOGC),
    "caml_tag_val": BuiltinSpec(("value",), "int", NOGC),
    "caml_is_long": BuiltinSpec(("value",), "int", NOGC),
    # heap writes and initialization
    "caml_modify": BuiltinSpec(("valueptr", "value"), "void", NOGC),
    "caml_initialize": BuiltinSpec(("valueptr", "value"), "void", NOGC),
    # roots
    "caml_register_global_root": BuiltinSpec(("valueptr",), "void", NOGC),
    "caml_remove_global_root": BuiltinSpec(("valueptr",), "void", NOGC),
    "caml_named_value": BuiltinSpec(("charptr",), "valueptr", NOGC),
    # misc runtime services
    "caml_enter_blocking_section": BuiltinSpec((), "void", NOGC),
    "caml_leave_blocking_section": BuiltinSpec((), "void", NOGC),
    "caml_stat_alloc": BuiltinSpec(("int",), "voidptr", NOGC),
    "caml_stat_free": BuiltinSpec(("voidptr",), "void", NOGC),
}

#: Accessor macros rewritten to builtin calls by the lowering:
#: macro name -> builtin function name.
ACCESSOR_MACROS: dict[str, str] = {
    "String_val": "caml_string_val",
    "Bytes_val": "caml_string_val",
    "Double_val": "caml_double_val",
    "Int32_val": "caml_int32_val",
    "Int64_val": "caml_int64_val",
    "Nativeint_val": "caml_nativeint_val",
    "Wosize_val": "caml_wosize_val",
    "string_length": "caml_string_length",
}


@seed_table("ocaml.builtin_entries")
def builtin_entries() -> dict[str, Entry]:
    """The function-environment entries for every runtime entry point.

    Memoized in the central seed store (see :mod:`repro.seeds`; per
    process since PR 5): all builtins are treated polymorphically
    (instantiated with fresh variables at every call site via
    ``instantiate_ct``), and variable *bindings* live in each run's own
    :class:`~repro.core.unify.Unifier`, so sharing the canonical entries
    across analysis runs cannot leak inference state between programs.
    Callers must treat the returned mapping as read-only.
    """
    return spec_entries(RUNTIME_FUNCTIONS)


#: Builtins whose types must be instantiated afresh at every call site.
POLYMORPHIC_BUILTINS: frozenset[str] = frozenset(RUNTIME_FUNCTIONS)

#: Allocators whose result is a fresh block at offset 0 with a known tag:
#: the value is the argument index holding the tag, or a literal tag.
#: This is what lets `b = caml_alloc(n, t); Store_field(b, i, v)` check
#: precisely — the paper's benchmarks use the idiom everywhere.
ALLOC_RESULT_TAG: dict[str, int | str] = {
    "caml_alloc": "arg1",
    "caml_alloc_small": "arg1",
    "alloc": "arg1",
    "alloc_small": "arg1",
    "caml_alloc_tuple": 0,
    "alloc_tuple": 0,
}


def is_ffi_macro(name: str) -> bool:
    """True when the lowering gives this identifier special meaning."""
    return (
        name in VALUE_CONSTANTS
        or name in VAL_OF_INT_MACROS
        or name in INT_OF_VAL_MACROS
        or name in IS_LONG_MACROS
        or name in IS_BLOCK_MACROS
        or name in TAG_VAL_MACROS
        or name in FIELD_MACROS
        or name in STORE_FIELD_MACROS
        or name in CAMLPARAM_MACROS
        or name in CAMLLOCAL_MACROS
        or name in CAMLRETURN_MACROS
        or name in CAMLRETURN0_MACROS
        or name in ACCESSOR_MACROS
    )
