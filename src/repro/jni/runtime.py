"""Knowledge base for the JNI ``JNIEnv`` API, mirroring :mod:`repro.cfront.macros`.

Three tables live here:

* parse hints, so the shared C parser reads JNI glue (``jobject`` and its
  typedef family *are* the boxed-value type, ``jmethodID``/``jfieldID``
  are opaque handles, ``JNIEXPORT``/``JNICALL`` are calling-convention
  markers, ``NULL`` stays an identifier for the rewrite);
* the typing table for the ``JNIEnv*`` entry points, in the shared
  :class:`~repro.cfront.macros.BuiltinSpec` language, seeding the
  checker's function environment.  Entries are named by the function-table
  member (``GetIntField``, ``CallObjectMethod``, ...) — the rewrite
  flattens ``(*env)->GetIntField(env, obj, fid)`` into a direct
  ``GetIntField(obj, fid)`` call before lowering.  Every entry is
  ``nogc``: the JVM collector pins objects behind references, so the
  OCaml protection obligations never fire — the local/global reference
  discipline is this dialect's analogue (:mod:`repro.jni.refs`);
* the reference-semantics classification (local-ref producers, global-ref
  producers, the delete functions) that the refs pass interprets, and the
  descriptor letter each ``Call<T>Method``/``Get<T>Field`` variant
  commits to, which the descriptor checker compares against the string
  the ``jmethodID``/``jfieldID`` was looked up with.
"""

from __future__ import annotations

from ..cfront.macros import BuiltinSpec, return_types, spec_entries
from ..cfront.parser import ParseHints
from ..core.environment import Entry
from ..core.srctypes import CSrcPtr, CSrcScalar, CSrcStruct, CSrcType, CSrcValue
from ..core.types import C_INT
from ..seeds import seed_table

# -- parse hints ---------------------------------------------------------------

#: typedef names whose values are opaque JVM references (the dialect's
#: boxed-value type — ``jobject`` is ``void *`` in ``jni.h`` and used
#: by value, so unlike ``PyObject`` no pointer hop is involved)
REFERENCE_TYPEDEFS: tuple[str, ...] = (
    "jobject",
    "jclass",
    "jstring",
    "jthrowable",
    "jweak",
    "jarray",
    "jobjectArray",
    "jbooleanArray",
    "jbyteArray",
    "jcharArray",
    "jshortArray",
    "jintArray",
    "jlongArray",
    "jfloatArray",
    "jdoubleArray",
)

#: JVM scalar typedefs (all modelled as C ints, like ``Py_ssize_t``)
SCALAR_TYPEDEFS: tuple[str, ...] = (
    "jboolean",
    "jbyte",
    "jchar",
    "jshort",
    "jint",
    "jlong",
    "jfloat",
    "jdouble",
    "jsize",
)

#: Typedefs the ``jni.h`` header would have provided.
_TYPEDEFS: dict[str, CSrcType] = {
    "JNIEnv": CSrcStruct("JNIEnv"),
    "JavaVM": CSrcStruct("JavaVM"),
    "JNINativeMethod": CSrcStruct("JNINativeMethod"),
    "jvalue": CSrcStruct("jvalue"),
    "jmethodID": CSrcPtr(CSrcStruct("jmethodID")),
    "jfieldID": CSrcPtr(CSrcStruct("jfieldID")),
}
_TYPEDEFS.update({name: CSrcValue() for name in REFERENCE_TYPEDEFS})
_TYPEDEFS.update({name: CSrcScalar("int") for name in SCALAR_TYPEDEFS})


@seed_table("jni.parse_hints")
def parse_hints() -> ParseHints:
    """How to read JNI glue source with the shared parser.

    Memoized per process; :class:`ParseHints` is frozen and the parser
    copies the typedef table, so one instance serves every request.
    """
    return ParseHints(
        typedefs=dict(_TYPEDEFS),
        null_is_identifier=True,
        qualifiers=frozenset({"JNIEXPORT", "JNIIMPORT", "JNICALL"}),
    )


# -- runtime entry-point signatures --------------------------------------------

#: The primitive letters of ``Call<T>Method``/``Get<T>Field`` families:
#: suffix -> (descriptor letter, spec kind).
TYPE_VARIANTS: dict[str, tuple[str, str]] = {
    "Object": ("L", "value"),
    "Boolean": ("Z", "int"),
    "Byte": ("B", "int"),
    "Char": ("C", "int"),
    "Short": ("S", "int"),
    "Int": ("I", "int"),
    "Long": ("J", "int"),
    "Float": ("F", "int"),
    "Double": ("D", "int"),
}

#: jobject-valued JVM scalar arrays, for ``New<T>Array`` and friends.
_ARRAY_VARIANTS = (
    "Boolean",
    "Byte",
    "Char",
    "Short",
    "Int",
    "Long",
    "Float",
    "Double",
)


def _build_runtime_table() -> dict[str, BuiltinSpec]:
    table: dict[str, BuiltinSpec] = {
        # rewrite targets (see repro.jni.rewrite)
        "__jni_null": BuiltinSpec((), "value"),
        "__jni_is_null": BuiltinSpec(("value",), "int"),
        # classes and reflection
        "FindClass": BuiltinSpec(("charptr",), "value"),
        "GetObjectClass": BuiltinSpec(("value",), "value"),
        "GetSuperclass": BuiltinSpec(("value",), "value"),
        "IsAssignableFrom": BuiltinSpec(("value", "value"), "int"),
        "IsInstanceOf": BuiltinSpec(("value", "value"), "int"),
        "IsSameObject": BuiltinSpec(("value", "value"), "int"),
        # method / field lookup
        "GetMethodID": BuiltinSpec(("value", "charptr", "charptr"), "methodid"),
        "GetStaticMethodID": BuiltinSpec(("value", "charptr", "charptr"), "methodid"),
        "GetFieldID": BuiltinSpec(("value", "charptr", "charptr"), "fieldid"),
        "GetStaticFieldID": BuiltinSpec(("value", "charptr", "charptr"), "fieldid"),
        # object construction (varargs tail truncated by the rewrite)
        "NewObject": BuiltinSpec(("value", "methodid"), "value"),
        "AllocObject": BuiltinSpec(("value",), "value"),
        # strings
        "NewStringUTF": BuiltinSpec(("charptr",), "value"),
        "NewString": BuiltinSpec(("voidptr", "int"), "value"),
        "GetStringLength": BuiltinSpec(("value",), "int"),
        "GetStringUTFLength": BuiltinSpec(("value",), "int"),
        "GetStringUTFChars": BuiltinSpec(("value", "any"), "charptr"),
        "ReleaseStringUTFChars": BuiltinSpec(("value", "charptr"), "void"),
        "GetStringChars": BuiltinSpec(("value", "any"), "voidptr"),
        "ReleaseStringChars": BuiltinSpec(("value", "voidptr"), "void"),
        # reference lifecycle
        "NewLocalRef": BuiltinSpec(("value",), "value"),
        "DeleteLocalRef": BuiltinSpec(("value",), "void"),
        "NewGlobalRef": BuiltinSpec(("value",), "value"),
        "DeleteGlobalRef": BuiltinSpec(("value",), "void"),
        "NewWeakGlobalRef": BuiltinSpec(("value",), "value"),
        "DeleteWeakGlobalRef": BuiltinSpec(("value",), "void"),
        "EnsureLocalCapacity": BuiltinSpec(("int",), "int"),
        "PushLocalFrame": BuiltinSpec(("int",), "int"),
        "PopLocalFrame": BuiltinSpec(("value",), "value"),
        # exceptions
        "Throw": BuiltinSpec(("value",), "int"),
        "ThrowNew": BuiltinSpec(("value", "charptr"), "int"),
        "ExceptionOccurred": BuiltinSpec((), "value"),
        "ExceptionCheck": BuiltinSpec((), "int"),
        "ExceptionClear": BuiltinSpec((), "void"),
        "ExceptionDescribe": BuiltinSpec((), "void"),
        "FatalError": BuiltinSpec(("charptr",), "void"),
        # object arrays
        "GetArrayLength": BuiltinSpec(("value",), "int"),
        "NewObjectArray": BuiltinSpec(("int", "value", "value"), "value"),
        "GetObjectArrayElement": BuiltinSpec(("value", "int"), "value"),
        "SetObjectArrayElement": BuiltinSpec(("value", "int", "value"), "void"),
        # monitors and the VM
        "MonitorEnter": BuiltinSpec(("value",), "int"),
        "MonitorExit": BuiltinSpec(("value",), "int"),
        "GetJavaVM": BuiltinSpec(("voidptr",), "int"),
        "GetVersion": BuiltinSpec((), "int"),
        "RegisterNatives": BuiltinSpec(("value", "voidptr", "int"), "int"),
        "UnregisterNatives": BuiltinSpec(("value",), "int"),
    }
    for suffix, (_, kind) in TYPE_VARIANTS.items():
        # instance and static calls (varargs tails truncated by the rewrite)
        table[f"Call{suffix}Method"] = BuiltinSpec(("value", "methodid"), kind)
        table[f"CallStatic{suffix}Method"] = BuiltinSpec(("value", "methodid"), kind)
        table[f"CallNonvirtual{suffix}Method"] = BuiltinSpec(
            ("value", "value", "methodid"), kind
        )
        # field access
        table[f"Get{suffix}Field"] = BuiltinSpec(("value", "fieldid"), kind)
        table[f"Set{suffix}Field"] = BuiltinSpec(("value", "fieldid", kind), "void")
        table[f"GetStatic{suffix}Field"] = BuiltinSpec(("value", "fieldid"), kind)
        table[f"SetStatic{suffix}Field"] = BuiltinSpec(
            ("value", "fieldid", kind), "void"
        )
    table["CallVoidMethod"] = BuiltinSpec(("value", "methodid"), "void")
    table["CallStaticVoidMethod"] = BuiltinSpec(("value", "methodid"), "void")
    table["CallNonvirtualVoidMethod"] = BuiltinSpec(
        ("value", "value", "methodid"), "void"
    )
    for variant in _ARRAY_VARIANTS:
        table[f"New{variant}Array"] = BuiltinSpec(("int",), "value")
        table[f"Get{variant}ArrayElements"] = BuiltinSpec(("value", "any"), "voidptr")
        table[f"Release{variant}ArrayElements"] = BuiltinSpec(
            ("value", "voidptr", "int"), "void"
        )
        table[f"Get{variant}ArrayRegion"] = BuiltinSpec(
            ("value", "int", "int", "voidptr"), "void"
        )
        table[f"Set{variant}ArrayRegion"] = BuiltinSpec(
            ("value", "int", "int", "voidptr"), "void"
        )
    return table


#: The ``JNIEnv`` function-table surface glue actually uses, plus the
#: ``__jni_*`` internals the rewrite introduces.
RUNTIME_FUNCTIONS: dict[str, BuiltinSpec] = _build_runtime_table()

#: Well-known runtime constants visible in every function (``jni.h``
#: macros the tokenizer would otherwise leave as bare identifiers).
GLOBAL_SCALARS: tuple[str, ...] = (
    "JNI_TRUE",
    "JNI_FALSE",
    "JNI_OK",
    "JNI_ERR",
    "JNI_COMMIT",
    "JNI_ABORT",
    "JNI_VERSION_1_2",
    "JNI_VERSION_1_4",
    "JNI_VERSION_1_6",
    "JNI_VERSION_1_8",
)


# Per-process seed memos (PR 5): tables are built once, not per request.
# Sharing is safe because builtins are polymorphic (instantiated afresh at
# every call site) and variable bindings live in each run's own Unifier;
# callers must treat the returned mappings as read-only.


@seed_table("jni.builtin_entries")
def builtin_entries() -> dict[str, Entry]:
    """The function-environment entries for every JNIEnv entry point (memoized)."""
    return spec_entries(RUNTIME_FUNCTIONS)


@seed_table("jni.global_entries")
def global_entries() -> dict[str, Entry]:
    """Bindings for the well-known scalar constants (memoized)."""
    return {name: Entry(C_INT) for name in GLOBAL_SCALARS}


#: Builtins whose types are instantiated afresh at every call site.
POLYMORPHIC_BUILTINS: frozenset[str] = frozenset(RUNTIME_FUNCTIONS)


@seed_table("jni.lowering_return_types")
def lowering_return_types() -> dict[str, CSrcType]:
    """Static return types for the lowering's symbol table (memoized)."""
    return return_types(RUNTIME_FUNCTIONS)


# -- reference semantics -------------------------------------------------------

#: Entry points whose result is a *local* reference the VM frees when the
#: native frame returns — but which overflows the local-reference table
#: when created per loop iteration without DeleteLocalRef.
LOCAL_REF_FUNCTIONS: frozenset[str] = frozenset(
    {
        "FindClass",
        "GetObjectClass",
        "GetSuperclass",
        "NewObject",
        "AllocObject",
        "NewStringUTF",
        "NewString",
        "NewLocalRef",
        "NewObjectArray",
        "GetObjectArrayElement",
        "CallObjectMethod",
        "CallStaticObjectMethod",
        "CallNonvirtualObjectMethod",
        "GetObjectField",
        "GetStaticObjectField",
        "ExceptionOccurred",
        "PopLocalFrame",
    }
    | {f"New{variant}Array" for variant in _ARRAY_VARIANTS}
)

#: Entry points whose result outlives the frame and must be released.
GLOBAL_REF_FUNCTIONS: frozenset[str] = frozenset(
    {"NewGlobalRef", "NewWeakGlobalRef"}
)

#: Delete spellings the refs pass interprets.
DELETE_LOCAL_FUNCTIONS: frozenset[str] = frozenset({"DeleteLocalRef"})
DELETE_GLOBAL_FUNCTIONS: frozenset[str] = frozenset(
    {"DeleteGlobalRef", "DeleteWeakGlobalRef"}
)
