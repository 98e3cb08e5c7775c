"""CPython extension-module front-end (the ``pyext`` boundary dialect).

The OCaml FFI and the CPython C API are the same problem wearing
different macros: host values cross into C as a uniform word
(``value`` / ``PyObject *``), the host hands C an interface contract
(``external`` declarations / ``PyMethodDef`` tables), and a manual
discipline protects heap objects from the collector
(``CAMLprotect`` / ``Py_INCREF``-``Py_DECREF``).  This package maps the
CPython side of each correspondence onto the shared inference:

* :mod:`repro.pyext.runtime` — the runtime entry-point table and parse
  hints (``PyObject *`` parses as the value type);
* :mod:`repro.pyext.methods` — ``PyMethodDef`` tables become ``Γ_I``;
* :mod:`repro.pyext.formats` — ``PyArg_ParseTuple`` / ``Py_BuildValue``
  format strings checked against the supplied C arguments;
* :mod:`repro.pyext.refcount` — borrowed-vs-new reference discipline
  (leaks, use-after-decref, borrowed escapes);
* :mod:`repro.pyext.rewrite` — normalizes CPython idioms (``NULL``,
  ``Py_RETURN_NONE``, varargs parsers) into the Figure 5 subset;
* :mod:`repro.pyext.dialect` — ties it all together as a
  :class:`repro.boundary.BoundaryDialect`.

The machinery pyext shares with the jni dialect lives in
:mod:`repro.cfront`: the runtime spec language
(:class:`repro.cfront.macros.BuiltinSpec`), the idiom rewrite
(:mod:`repro.cfront.idioms`) and the reference-discipline interpreter
(:mod:`repro.cfront.discipline`).  The modules here hold only what is
CPython's.
"""

from .dialect import PYEXT_DIALECT, PyExtDialect

__all__ = ["PYEXT_DIALECT", "PyExtDialect"]
