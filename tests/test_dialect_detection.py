"""Per-dialect detection over synthesized units.

For the pyext, jni and rust dialects: a corpus of clean units interleaved
with units seeded with one defect each, cycling through every defect
class of the dialect.  Every seeded unit must report its planted kind
and no other of the dialect's kinds, every clean unit must report
nothing, and a warm rerun over the same cache must be all hits.
"""

import pytest

from repro.engine import CheckRequest, ResultCache, run_batch
from repro.source import SourceFile

PYEXT_CLEAN = """\
#include <Python.h>

static PyObject *
work_{i}(PyObject *self, PyObject *args)
{{
    long a, b;
    if (!PyArg_ParseTuple(args, "ll", &a, &b))
        return NULL;
    return PyLong_FromLong(a * {i} + b);
}}

static PyMethodDef Methods_{i}[] = {{
    {{"work_{i}", work_{i}, METH_VARARGS, "synthesized worker"}},
    {{NULL, NULL, 0, NULL}}
}};

static struct PyModuleDef module_{i} = {{
    PyModuleDef_HEAD_INIT, "mod{i}", NULL, -1, Methods_{i}
}};

PyMODINIT_FUNC
PyInit_mod{i}(void)
{{
    return PyModule_Create(&module_{i});
}}
"""

PYEXT_SEEDED = """\
#include <Python.h>

static PyObject *
seeded_{i}(PyObject *self, PyObject *args)
{{
{body}}}

static PyMethodDef Methods_{i}[] = {{
    {{"seeded_{i}", seeded_{i}, METH_VARARGS, "synthesized defect"}},
    {{NULL, NULL, 0, NULL}}
}};
"""

#: defect class -> (expected kind, body of the seeded function)
PYEXT_DEFECTS = {
    "format-arity": (
        "PY_FORMAT_MISMATCH",
        '    long a;\n'
        '    if (!PyArg_ParseTuple(args, "ll", &a))\n'
        "        return NULL;\n"
        "    return PyLong_FromLong(a);\n",
    ),
    "format-type": (
        "PY_FORMAT_MISMATCH",
        '    long n;\n'
        '    if (!PyArg_ParseTuple(args, "s", &n))\n'
        "        return NULL;\n"
        "    return PyLong_FromLong(n);\n",
    ),
    "ref-leak": (
        "PY_REF_LEAK",
        "    PyObject *tmp = PyList_New(0);\n"
        "    return PyLong_FromLong(1);\n",
    ),
    "use-after-decref": (
        "PY_USE_AFTER_DECREF",
        "    PyObject *tmp = PyLong_FromLong(7);\n"
        "    Py_DECREF(tmp);\n"
        "    return tmp;\n",
    ),
    "borrowed-escape": (
        "PY_BORROWED_ESCAPE",
        "    PyObject *item = PyTuple_GetItem(args, 0);\n"
        "    return item;\n",
    ),
}

JNI_CLEAN = """\
#include <jni.h>

JNIEXPORT jint JNICALL
Java_com_bench_Mod_1{i}_work(JNIEnv *env, jobject self, jobjectArray items)
{{
    jint total = {i};
    jsize count = (*env)->GetArrayLength(env, items);
    jsize index;
    for (index = 0; index < count; index = index + 1) {{
        jobject item = (*env)->GetObjectArrayElement(env, items, index);
        total = total + (*env)->GetStringLength(env, item);
        (*env)->DeleteLocalRef(env, item);
    }}
    return total;
}}

JNIEXPORT jint JNICALL
Java_com_bench_Mod_1{i}_callSize(JNIEnv *env, jobject self, jobject list)
{{
    jclass cls = (*env)->GetObjectClass(env, list);
    jmethodID size = (*env)->GetMethodID(env, cls, "size", "()I");
    if (size == NULL)
        return -1;
    return (*env)->CallIntMethod(env, list, size);
}}
"""

JNI_SEEDED = """\
#include <jni.h>

JNIEXPORT jint JNICALL
Java_com_bench_Bad_1{i}_seeded(JNIEnv *env, jobject self, jobject box)
{{
{body}}}
"""

#: defect class -> (expected kind, body of the seeded function)
JNI_DEFECTS = {
    "descriptor-syntax": (
        "JNI_BAD_DESCRIPTOR",
        "    jclass cls = (*env)->GetObjectClass(env, box);\n"
        '    jfieldID fid = (*env)->GetFieldID(env, cls, "n", "Q");\n'
        "    return (*env)->GetIntField(env, box, fid);\n",
    ),
    "descriptor-mismatch": (
        "JNI_DESCRIPTOR_MISMATCH",
        "    jclass cls = (*env)->GetObjectClass(env, box);\n"
        '    jmethodID size = (*env)->GetMethodID(env, cls, "size", "()I");\n'
        "    (*env)->CallObjectMethod(env, box, size);\n"
        "    return 0;\n",
    ),
    "call-arity": (
        "JNI_DESCRIPTOR_MISMATCH",
        "    jclass cls = (*env)->GetObjectClass(env, box);\n"
        '    jmethodID m = (*env)->GetMethodID(env, cls, "get", "(I)I");\n'
        "    return (*env)->CallIntMethod(env, box, m, 1, 2);\n",
    ),
    "loop-leak": (
        "JNI_LOCAL_REF_LEAK",
        "    jint total = 0;\n"
        "    jsize index;\n"
        "    for (index = 0; index < 8; index = index + 1) {\n"
        "        jobject item = (*env)->GetObjectArrayElement(env, box, index);\n"
        "        total = total + (*env)->GetStringLength(env, item);\n"
        "    }\n"
        "    return total;\n",
    ),
    "use-after-delete": (
        "JNI_USE_AFTER_DELETE",
        "    jclass cls = (*env)->GetObjectClass(env, box);\n"
        "    (*env)->DeleteLocalRef(env, cls);\n"
        "    return (*env)->IsInstanceOf(env, box, cls);\n",
    ),
    "global-leak": (
        "JNI_GLOBAL_REF_LEAK",
        "    jobject pinned = (*env)->NewGlobalRef(env, box);\n"
        "    (*env)->GetStringLength(env, pinned);\n"
        "    return 0;\n",
    ),
}

RUST_CLEAN = """\
use std::os::raw::c_char;

extern "C" {{
    fn c_hash_{i}(data: *const u8, len: usize) -> u64;
    fn c_name_{i}() -> *const c_char;
}}

#[no_mangle]
pub extern "C" fn rs_tick_{i}(n: u32) -> u32 {{
    let name = unsafe {{ c_name_{i}() }};
    let _ = name;
    n + {i}
}}
"""

RUST_CLEAN_C = """\
#include <stddef.h>
#include <stdint.h>

uint64_t c_hash_{i}(const uint8_t *data, size_t len)
{{
    uint64_t hash = {i};
    for (size_t at = 0; at < len; at++)
        hash = hash * 31 + data[at];
    return hash;
}}

const char *c_name_{i}(void)
{{
    return "bench";
}}

extern uint32_t rs_tick_{i}(uint32_t n);

uint32_t drive_{i}(void)
{{
    return rs_tick_{i}({i});
}}
"""

RUST_SEEDED = """\
pub enum Mode {{ A, B }}

extern "C" {{
    {decl}
}}
"""

#: defect class -> (expected kind, (rust declaration, C definition))
RUST_DEFECTS = {
    "arity": (
        "RUST_DECL_MISMATCH",
        ("fn c_bad_{i}(a: i32) -> i32;",
         "int c_bad_{i}(int a, int b) {{ return a + b; }}"),
    ),
    "platform-width": (
        "RUST_PLATFORM_WIDTH",
        ("fn c_bad_{i}(n: usize) -> i32;",
         "int c_bad_{i}(int n) {{ return n; }}"),
    ),
    "ptr-int": (
        "RUST_PTR_INT_CONFUSION",
        ("fn c_bad_{i}(p: *const u8) -> i32;",
         "int c_bad_{i}(long p) {{ return (int)p; }}"),
    ),
    "enum-repr": (
        "RUST_ENUM_REPR",
        ("fn c_bad_{i}(mode: Mode) -> i32;",
         "int c_bad_{i}(int mode) {{ return mode; }}"),
    ),
    "str-passing": (
        "RUST_STR_PASSING",
        ("fn c_bad_{i}(msg: &str) -> i32;",
         "int c_bad_{i}(const char *msg) {{ return msg != 0; }}"),
    ),
    "rendered-type": (
        "RUST_DECL_MISMATCH",
        ("fn c_bad_{i}(x: u32) -> i32;",
         "int c_bad_{i}(unsigned long long x) {{ return (int)x; }}"),
    ),
}


def _pyext_unit(i, body):
    text = PYEXT_CLEAN.format(i=i) if body is None else PYEXT_SEEDED.format(i=i, body=body)
    return CheckRequest(
        name=f"mod{i:03}.c", c_sources=(SourceFile(f"mod{i:03}.c", text),), dialect="pyext"
    )


def _jni_unit(i, body):
    text = JNI_CLEAN.format(i=i) if body is None else JNI_SEEDED.format(i=i, body=body)
    return CheckRequest(
        name=f"native{i:03}.c",
        c_sources=(SourceFile(f"native{i:03}.c", text),),
        dialect="jni",
    )


def _rust_unit(i, decls):
    if decls is None:
        rust, c = RUST_CLEAN.format(i=i), RUST_CLEAN_C.format(i=i)
    else:
        rust = RUST_SEEDED.format(decl=decls[0].format(i=i))
        c = decls[1].format(i=i) + "\n"
    name = f"binding{i:03}.c"
    return CheckRequest(
        name=name,
        c_sources=(SourceFile(name, c),),
        ocaml_sources=(SourceFile(f"binding{i:03}.rs", rust),),
        dialect="rust",
    )


#: dialect -> (unit builder, defect table, the dialect's own kinds)
DIALECTS = {
    "pyext": (
        _pyext_unit,
        PYEXT_DEFECTS,
        {"PY_FORMAT_MISMATCH", "PY_REF_LEAK", "PY_USE_AFTER_DECREF", "PY_BORROWED_ESCAPE"},
    ),
    "jni": (
        _jni_unit,
        JNI_DEFECTS,
        {
            "JNI_BAD_DESCRIPTOR",
            "JNI_DESCRIPTOR_MISMATCH",
            "JNI_LOCAL_REF_LEAK",
            "JNI_USE_AFTER_DELETE",
            "JNI_GLOBAL_REF_LEAK",
            "JNI_LOCAL_ESCAPE",
        },
    ),
    "rust": (
        _rust_unit,
        RUST_DEFECTS,
        {
            "RUST_DECL_MISMATCH",
            "RUST_PLATFORM_WIDTH",
            "RUST_PTR_INT_CONFUSION",
            "RUST_ENUM_REPR",
            "RUST_STR_PASSING",
        },
    ),
}


def build_corpus(dialect):
    """(request, expected kind or None): clean and seeded units
    interleaved, one seeded unit per defect class."""
    unit, defects, _kinds = DIALECTS[dialect]
    corpus = []
    for index, (kind, seed) in enumerate(defects.values()):
        corpus.append((unit(2 * index, None), None))
        corpus.append((unit(2 * index + 1, seed), kind))
    return corpus


@pytest.mark.parametrize("dialect", sorted(DIALECTS))
def test_seeded_units_report_exactly_their_planted_kind(dialect, tmp_path):
    corpus = build_corpus(dialect)
    requests = [request for request, _ in corpus]
    cache = ResultCache(tmp_path)
    cold = run_batch(requests, jobs=1, cache=cache)
    own_kinds = DIALECTS[dialect][2]
    for (request, expected), result in zip(corpus, cold.results):
        assert result.failure is None, (request.name, result.failure)
        kinds = {diag.kind.name for diag in result.diagnostics}
        if expected is None:
            assert not kinds, (request.name, kinds)
        else:
            assert kinds & own_kinds == {expected}, (request.name, kinds)
    warm = run_batch(requests, jobs=1, cache=cache)
    assert warm.cache_hits == len(requests)
