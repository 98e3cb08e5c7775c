"""The host phase runs once per corpus; a unit pays only for what it names.

* Work per unit does not grow with the host: counted, not timed, over a
  corpus where every unit brings its own ``.ml``/``.c`` pair.
* A host-side note is reported once, under the unit that defines the
  external, whatever the mode.
* Host rows no unit mentions still reach the link pass, once.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Project, Session
from repro.boundary import get_dialect
from repro.cli import main
from repro.engine import run_batch

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def per_unit_corpus(root: Path, units: int) -> Path:
    """``units`` renamed copies of the glue counter pair: the host grows
    with the corpus, and every unit names only its own externals."""
    root.mkdir()
    glue = EXAMPLES / "glue"
    for index in range(units):
        for name in ("counter.ml", "counter_stubs.c"):
            text = (glue / name).read_text()
            renamed = text.replace("counter", f"counter{index:03d}")
            (root / f"u{index:03d}_{name}").write_text(renamed)
    return root


def per_unit_work(root: Path) -> tuple[list[int], list[int]]:
    """Γ_I entries and summary binding rows, one count per unit."""
    project = Project.from_directory(root)
    requests = project.to_requests()
    dialect = get_dialect("ocaml")
    entries = []
    for request in requests:
        units = [dialect.parse(source) for source in request.c_sources]
        entries.append(len(dialect.initial_env(request, units).functions))
    report = run_batch(requests, jobs=1, cache=None)
    rows = [len(result.summary["bindings"]) for result in report.results]
    return entries, rows


class TestTrendGate:
    def test_per_unit_work_is_the_same_at_host_size_h_and_4h(self, tmp_path):
        small = per_unit_work(per_unit_corpus(tmp_path / "h", 3))
        large = per_unit_work(per_unit_corpus(tmp_path / "4h", 12))
        for counts in (*small, *large):
            assert set(counts) == {2}, counts
        assert len(large[0]) == 4 * len(small[0])


#: four units, one host file with one polymorphic-variant external;
#: only a.c defines it
LIB_ML = (
    'external set_mode : [ `On | `Off ] -> unit = "stub_f"\n'
    'external next : int -> int = "stub_g"\n'
)
UNITS = {
    "a.c": "value stub_f(value mode)\n{\n    return Val_unit;\n}\n",
    "b.c": "value stub_g(value x)\n{\n    return Val_int(Int_val(x) + 1);\n}\n",
    "c.c": "long helper_c(long x)\n{\n    return x;\n}\n",
    "d.c": "long helper_d(long x)\n{\n    return x * 2;\n}\n",
}
NOTE = "traffics in polymorphic variants"


@pytest.fixture()
def poly_tree(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "lib.ml").write_text(LIB_ML)
    for name, text in UNITS.items():
        (root / name).write_text(text)
    return root


def notes_by_unit(text: str) -> dict[str, int]:
    """Count the note's lines under each ``== unit`` block of a sweep's
    text output."""
    counts: dict[str, int] = {}
    unit = None
    for line in text.splitlines():
        if line.startswith("== "):
            unit = Path(line[3:].split()[0]).name
            counts.setdefault(unit, 0)
        elif NOTE in line:
            counts[unit] = counts.get(unit, 0) + 1
    return {name: count for name, count in counts.items() if count}


class TestModeEquivalence:
    def test_check_reports_the_note_once(self, poly_tree, capsys):
        files = [str(poly_tree / "lib.ml")]
        files += [str(poly_tree / name) for name in UNITS]
        main(["check", *files, "--format", "json"])
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        noted = [d for d in diagnostics if NOTE in d["message"]]
        assert len(noted) == 1
        assert noted[0]["function"] == "stub_f"

    @pytest.mark.parametrize(
        "command",
        [("batch",), ("batch", "--stream"), ("link",)],
        ids=" ".join,
    )
    def test_sweeps_report_the_note_once_under_the_defining_unit(
        self, poly_tree, command, capsys
    ):
        main([command[0], str(poly_tree), *command[1:], "--no-cache"])
        assert notes_by_unit(capsys.readouterr().out) == {"a.c": 1}

    def test_daemon_reports_the_note_once_under_the_defining_unit(
        self, poly_tree
    ):
        with Session(poly_tree) as session:
            report = session.check()
        counts = {
            Path(result.name).name: sum(
                NOTE in d.message for d in result.diagnostics
            )
            for result in report.results
        }
        assert {name: n for name, n in counts.items() if n} == {"a.c": 1}

    def test_a_caller_that_fixes_a_polymorphic_parameter_is_reported(
        self, tmp_path, capsys
    ):
        # a.c implements the external without committing its 'a
        # parameter; b.c, which only calls it, fixes the type
        (tmp_path / "lib.ml").write_text(
            "external seek : 'a -> int -> unit = \"ml_seek\"\n"
        )
        (tmp_path / "a.c").write_text(
            "value ml_seek(value chan, value pos)\n{\n    return Val_unit;\n}\n"
        )
        (tmp_path / "b.c").write_text(
            "value ml_seek(value chan, value pos);\n\n"
            "value caller(value v)\n{\n    return ml_seek(Val_int(1), v);\n}\n"
        )

        def abuses(diagnostics):
            return [
                d["function"]
                for d in diagnostics
                if d["kind"] == "POLYMORPHIC_ABUSE"
            ]

        files = [str(tmp_path / name) for name in ("lib.ml", "a.c", "b.c")]
        main(["check", *files, "--format", "json"])
        merged = abuses(json.loads(capsys.readouterr().out)["diagnostics"])
        main(["batch", str(tmp_path), "--format", "json", "--no-cache"])
        units = json.loads(capsys.readouterr().out)["units"]
        swept = [name for unit in units for name in abuses(unit["diagnostics"])]
        assert merged == swept == ["ml_seek"]


class TestHostRowsReachTheLinker:
    def test_unmentioned_binding_still_links_as_unresolved(self, capsys):
        corpus = str(EXAMPLES / "link" / "ocaml")
        main(["batch", corpus, "--format", "json", "--no-cache"])
        units = json.loads(capsys.readouterr().out)["units"]
        bound = {
            row["symbol"] for unit in units for row in unit["summary"]["bindings"]
        }
        assert "ml_missing" not in bound  # no unit mentions it
        main(["link", corpus, "--format", "json", "--no-cache"])
        link = json.loads(capsys.readouterr().out)["link"]
        unresolved = [
            d["message"]
            for d in link["diagnostics"]
            if d["kind"] == "LINK_UNRESOLVED_EXTERN"
        ]
        assert len(unresolved) == 1 and "'ml_missing'" in unresolved[0]
        assert link["bindings"] == 3

    def test_incremental_link_folds_in_the_host_rows(self):
        with Session(EXAMPLES / "link" / "ocaml") as session:
            _report, link = session.link()
        kinds = sorted(d.kind.name for d in link.diagnostics)
        assert "LINK_UNRESOLVED_EXTERN" in kinds
        assert link.units == 2 and link.bindings == 3

    def test_a_host_that_does_not_build_fails_the_units_not_the_link(
        self, tmp_path, capsys
    ):
        (tmp_path / "lib.ml").write_text('external f : int -> = "ml_f"\n')
        (tmp_path / "a.c").write_text("value ml_f(value x) { return x; }\n")
        code = main(["link", str(tmp_path), "--no-cache", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 125
        assert document["stream"]["failures"] == 1
        assert document["link"]["bindings"] == 0
