from pathlib import Path

import pytest
from inputs import (
    PLANT_KINDS,
    LinkCorpus,
    Program,
    add_tallies,
    daemon_corpus,
    fig9_programs,
    link_corpus,
    tally,
)
from oracles import check_daemon, check_link, check_program

CHECKOUT = Path(__file__).resolve().parents[2]


# -- fig9-oneshot --------------------------------------------------------------


def _program(expected):
    return Program("row", "ocaml", [], expected)


def test_program_oracle_accepts_the_planted_tally():
    document = {"tally": tally(errors=2, warnings=1)}
    assert check_program(_program(tally(errors=2, warnings=1)), document) is None


def test_program_oracle_rejects_a_wrong_answer():
    document = {"tally": tally(errors=2, warnings=1)}
    reason = check_program(_program(tally(errors=3, warnings=1)), document)
    assert reason is not None and "row" in reason


def test_fig9_rows_carry_their_synthesized_answers(tmp_path):
    """The oracle's answers for the Figure 9 rows come from the
    synthesizer's planted defects, and the checker agrees with them."""
    from repro.api import Project

    programs = fig9_programs(CHECKOUT, tmp_path, seed=3)
    assert len(programs) == 17
    row = next(p for p in programs if p.name == "ocaml-mad-0.1.0")
    project = Project()
    project.add_ocaml(row.files[0].read_text(), name=str(row.files[0]))
    project.add_c(row.files[1].read_text(), name=str(row.files[1]))
    document = {"tally": project.analyze().tally()}
    assert check_program(row, document) is None
    wrong = Program(row.name, row.dialect, row.files, add_tallies(row.expected, tally(errors=1)))
    assert check_program(wrong, document) is not None


def test_fig9_inputs_depend_on_the_seed(tmp_path):
    one = fig9_programs(CHECKOUT, tmp_path / "a", seed=1)
    two = fig9_programs(CHECKOUT, tmp_path / "b", seed=2)
    again = fig9_programs(CHECKOUT, tmp_path / "c", seed=1)
    assert one[0].files[1].read_text() != two[0].files[1].read_text()
    assert one[0].files[1].read_text() == again[0].files[1].read_text()


# -- link-sweep ----------------------------------------------------------------


def _link_document(corpus, counts, per_unit=None, failures=0):
    diagnostics = [{"kind": kind} for kind, n in counts.items() for _ in range(n)]
    return {
        "link": {"diagnostics": diagnostics},
        "stream": {
            "units": corpus.c_units,
            "failures": failures,
            "tally": per_unit or tally(),
        },
    }


def test_link_oracle_accepts_exactly_the_plants(tmp_path):
    corpus = LinkCorpus(tmp_path, units=50, plants=2)
    counts = {kind: 2 for kind in PLANT_KINDS}
    assert check_link(corpus, _link_document(corpus, counts)) is None


@pytest.mark.parametrize(
    "counts, per_unit, failures",
    [
        ({"LINK_CONFLICTING_DECL": 2, "LINK_DUPLICATE_DEFINITION": 1}, None, 0),
        ({"LINK_CONFLICTING_DECL": 2, "LINK_DUPLICATE_DEFINITION": 2, "LINK_UNRESOLVED_EXTERN": 1}, None, 0),
        ({"LINK_CONFLICTING_DECL": 2, "LINK_DUPLICATE_DEFINITION": 2}, tally(warnings=1), 0),
        ({"LINK_CONFLICTING_DECL": 2, "LINK_DUPLICATE_DEFINITION": 2}, None, 1),
    ],
)
def test_link_oracle_rejects_wrong_answers(tmp_path, counts, per_unit, failures):
    corpus = LinkCorpus(tmp_path, units=50, plants=2)
    assert check_link(corpus, _link_document(corpus, counts, per_unit, failures)) is not None


def test_link_corpus_plants_at_seeded_positions(tmp_path):
    corpus = link_corpus(CHECKOUT, tmp_path / "a", units=50, seed=4)
    assert corpus.plants == 2
    assert len(list(corpus.directory.glob("*.c"))) == corpus.c_units
    assert len(list(corpus.directory.glob("*.ml"))) == 50
    other = link_corpus(CHECKOUT, tmp_path / "b", units=50, seed=5)
    assert sorted(p.name for p in corpus.directory.glob("*plant*")) != sorted(
        p.name for p in other.directory.glob("*plant*")
    )


# -- daemon-edit ---------------------------------------------------------------


def test_daemon_answer_is_the_sum_over_toggled_defects(tmp_path):
    corpus = daemon_corpus(tmp_path / "tree", units=12, seed=7)
    assert corpus.expected() == tally()
    corpus.toggle(3)
    corpus.toggle(5)
    want = add_tallies(corpus.units[3].defect_tally, corpus.units[5].defect_tally)
    assert corpus.expected() == want
    corpus.toggle(3)
    assert corpus.expected() == corpus.units[5].defect_tally
    assert all(u.defect_kind != "poly_variant" for u in corpus.units)


def test_daemon_oracle_rejects_wrong_tallies_and_errors():
    good = {"result": {"tally": tally(errors=1), "units": [{"name": "u", "failure": None}]}}
    assert check_daemon(tally(errors=1), good) is None
    assert check_daemon(tally(errors=2), good) is not None
    assert check_daemon(tally(), {"error": {"code": -32603}}) is not None
    failed = {"result": {"tally": tally(), "units": [{"name": "u", "failure": "boom"}]}}
    assert check_daemon(tally(), failed) is not None


def test_daemon_edits_are_always_new_content(tmp_path):
    corpus = daemon_corpus(tmp_path / "tree", units=4, seed=1)
    seen = {corpus.units[0].path.read_text()}
    for _ in range(4):
        corpus.toggle(0)
        text = corpus.units[0].path.read_text()
        assert text not in seen
        seen.add(text)
