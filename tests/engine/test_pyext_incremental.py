"""Quoted-header dependencies under the incremental engine, pyext dialect.

The pyext and jni dialects have no host-language side: their only unit
dependencies are quoted ``#include`` targets found by
:func:`repro.cfront.lexer.scan_includes`.  These tests pin the contract
end to end: editing a quoted header re-checks exactly the dependent
``.c`` units, and nothing else.
"""

import pytest

from repro.boundary import unit_dependencies
from repro.cfront.lexer import scan_includes
from repro.engine import IncrementalEngine
from repro.engine.jobs import CheckRequest
from repro.source import SourceFile

USES_HEADER = """\
#include <Python.h>
#include "shared.h"

static PyObject *
uses_header(PyObject *self, PyObject *args)
{
    long a;
    if (!PyArg_ParseTuple(args, "l", &a))
        return NULL;
    return PyLong_FromLong(a);
}
"""

STANDALONE = """\
#include <Python.h>

static PyObject *
standalone(PyObject *self, PyObject *args)
{
    long b;
    if (!PyArg_ParseTuple(args, "l", &b))
        return NULL;
    return PyLong_FromLong(b + 1);
}
"""


@pytest.fixture()
def tree(tmp_path):
    root = tmp_path / "ext"
    root.mkdir()
    (root / "shared.h").write_text("#define SHARED 1\n")
    (root / "uses_header.c").write_text(USES_HEADER)
    (root / "standalone.c").write_text(STANDALONE)
    return root


@pytest.fixture()
def engine(tree):
    return IncrementalEngine(tree, dialect="pyext")


def names(paths):
    return sorted(p.rsplit("/", 1)[-1] for p in paths)


class TestUnitDependencies:
    def test_scan_includes_sees_quoted_headers_only(self):
        assert scan_includes(USES_HEADER) == ("shared.h",)
        assert scan_includes(STANDALONE) == ()

    def test_pyext_unit_dependencies_are_the_quoted_includes(self):
        request = CheckRequest(
            name="uses_header.c",
            c_sources=(SourceFile("uses_header.c", USES_HEADER),),
            dialect="pyext",
        )
        assert unit_dependencies(request) == ("shared.h",)

    def test_jni_unit_dependencies_are_the_quoted_includes(self):
        request = CheckRequest(
            name="native.c",
            c_sources=(
                SourceFile(
                    "native.c", '#include <jni.h>\n#include "cls.h"\n'
                ),
            ),
            dialect="jni",
        )
        assert unit_dependencies(request) == ("cls.h",)

    def test_graph_links_unit_to_header(self, engine):
        (unit,) = [
            name for name in engine.unit_names if name.endswith("uses_header.c")
        ]
        assert "shared.h" in names(engine.dependencies(unit))


class TestHeaderEditRecheck:
    def test_header_edit_dirties_only_dependent_units(self, tree, engine):
        engine.check()
        assert engine.dirty == set()
        (tree / "shared.h").write_text("#define SHARED 2\n")
        affected = engine.invalidate([tree / "shared.h"])
        assert names(affected) == ["uses_header.c"]
        assert names(engine.dirty) == ["uses_header.c"]

    def test_recheck_runs_only_the_dependent_unit(self, tree, engine):
        engine.check()
        (tree / "shared.h").write_text("#define SHARED 3\n")
        engine.invalidate([tree / "shared.h"])
        report = engine.check()
        assert names(report.checked) == ["uses_header.c"]
        assert report.reused == 1  # standalone.c served from resident state
        assert len(report.results) == 2

    def test_unit_edit_does_not_drag_in_header_siblings(self, tree, engine):
        engine.check()
        (tree / "standalone.c").write_text(STANDALONE + "\n/* edit */\n")
        affected = engine.invalidate([tree / "standalone.c"])
        assert names(affected) == ["standalone.c"]
        report = engine.check()
        assert names(report.checked) == ["standalone.c"]

    def test_unrelated_header_edit_dirties_nothing(self, tree, engine):
        engine.check()
        (tree / "other.h").write_text("#define OTHER 1\n")
        assert engine.invalidate([tree / "other.h"]) == set()
