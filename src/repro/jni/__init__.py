"""The JNI (Java Native Interface) boundary dialect.

``jobject`` plays the role OCaml's ``value`` and CPython's ``PyObject *``
play: an opaque reference into the host VM's heap.  The boundary contract
comes from ``JNINativeMethod`` registration tables and the ``Java_*``
export naming convention; the conversion checks read JVM type descriptors
(``(ILjava/lang/String;)V``) the way the pyext dialect reads
``PyArg_ParseTuple`` formats; and the protection discipline is the
local/global reference lifecycle (``NewLocalRef``/``DeleteLocalRef``/
``NewGlobalRef``).

The machinery jni shares with the pyext dialect lives in
:mod:`repro.cfront`: the runtime spec language
(:class:`repro.cfront.macros.BuiltinSpec`), the idiom rewrite
(:mod:`repro.cfront.idioms`) and the reference-discipline interpreter
(:mod:`repro.cfront.discipline`).  The modules here hold only what is
JNI's.
"""
