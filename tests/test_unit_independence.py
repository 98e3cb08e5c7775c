"""A unit's diagnostics depend only on that unit (pyext and jni).

Metamorphic relations over generated corpora of the C-contract dialects,
built from the clean and seeded templates of
``tests/test_dialect_detection.py``.  Each relation edits the corpus
around one unit and asks that no *other* unit's diagnostics move:

* adding an unrelated clean unit;
* permuting the unit order;
* renaming one unit's file, which may change only that unit's name and
  the filenames in its spans (and in the spans its messages quote).
"""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CheckRequest, run_batch
from repro.source import SourceFile


def _detection_module():
    """``tests/test_dialect_detection.py``, loaded by path: the importlib
    import mode keeps test directories off ``sys.path``."""
    path = Path(__file__).resolve().parent / "test_dialect_detection.py"
    spec = importlib.util.spec_from_file_location("_independence_detection", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DETECTION = _detection_module()
DIALECTS = ("pyext", "jni")


@st.composite
def corpora(draw):
    """(dialect, requests): two to five units, each clean or seeded with
    one of the dialect's defect classes, under distinct indices."""
    dialect = draw(st.sampled_from(DIALECTS))
    unit, defects, _kinds = DETECTION.DIALECTS[dialect]
    bodies = [None, *(seed for _kind, seed in defects.values())]
    picks = draw(st.lists(st.sampled_from(bodies), min_size=2, max_size=5))
    indices = draw(
        st.lists(
            st.integers(0, 99),
            min_size=len(picks),
            max_size=len(picks),
            unique=True,
        )
    )
    return dialect, [unit(i, body) for i, body in zip(indices, picks)]


def diagnostics(requests: list[CheckRequest]) -> dict[str, list[dict]]:
    """Each unit's diagnostics, by unit name, from one sweep."""
    report = run_batch(requests, jobs=1)
    by_name = {}
    for result in report.results:
        assert result.failure is None, (result.name, result.failure)
        by_name[result.name] = [diag.to_dict() for diag in result.diagnostics]
    return by_name


def _renamed(request: CheckRequest, name: str) -> CheckRequest:
    (source,) = request.c_sources
    return replace(request, name=name, c_sources=(SourceFile(name, source.text),))


def _with_filename(diags: list[dict], old: str, new: str) -> list[dict]:
    """``diags`` with file ``old`` renamed ``new`` in every span, including
    the ``file:line:col`` locations a message quotes."""
    return [
        {
            **diag,
            "span": {**diag["span"], "filename": new},
            "message": diag["message"].replace(f"{old}:", f"{new}:"),
        }
        for diag in diags
    ]


@settings(max_examples=10, deadline=None)
@given(corpus=corpora())
def test_adding_an_unrelated_clean_unit_changes_no_other_unit(corpus):
    dialect, requests = corpus
    before = diagnostics(requests)
    unit = DETECTION.DIALECTS[dialect][0]
    extra = unit(100, None)  # indices drawn above stay below 100
    after = diagnostics([*requests, extra])
    assert after.pop(extra.name) == []
    assert after == before


@settings(max_examples=10, deadline=None)
@given(corpus=corpora(), data=st.data())
def test_permuting_the_units_changes_no_unit(corpus, data):
    _dialect, requests = corpus
    before = diagnostics(requests)
    permuted = data.draw(st.permutations(requests))
    assert diagnostics(list(permuted)) == before


@settings(max_examples=10, deadline=None)
@given(corpus=corpora(), data=st.data())
def test_renaming_a_unit_changes_only_its_name_and_spans(corpus, data):
    _dialect, requests = corpus
    before = diagnostics(requests)
    at = data.draw(st.integers(0, len(requests) - 1))
    old = requests[at].name
    new = "renamed_" + old
    edited = [*requests[:at], _renamed(requests[at], new), *requests[at + 1 :]]
    after = diagnostics(edited)
    assert after.pop(new) == _with_filename(before.pop(old), old, new)
    assert after == before
