"""The whole-program linker: summaries, rules, and dialect extraction."""

import json
from pathlib import Path

import pytest

from repro.api import Project
from repro.diagnostics import Category, Kind
from repro.engine import run_batch
from repro.linker import InterfaceSummary, Linker, SymbolRow


def summary(unit, **groups):
    return InterfaceSummary(unit=unit, dialect="ocaml", **groups)


def export(symbol, type="value(value)", file="", line=1):
    return SymbolRow(symbol=symbol, type=type, file=file, line=line)


def kinds(report):
    return sorted(d.kind.name for d in report.diagnostics)


def host_summary_of(project):
    """The project's host rows, as every link driver folds them in."""
    from repro.boundary import get_dialect, host_summary

    return host_summary(
        get_dialect(project.dialect), tuple(project.ocaml_sources)
    )


class TestSummaryRoundTrip:
    def test_symbol_row_round_trips(self):
        row = SymbolRow("ml_f", "value(value)", "a.c", 12, "external f")
        assert SymbolRow.from_dict(row.to_dict()) == row

    def test_summary_round_trips(self):
        original = summary(
            "a.c",
            exports=[export("ml_f", file="a.c")],
            externs=[SymbolRow("helper", "value(value)", "a.c", 3)],
            registrations=[SymbolRow("f", "", "a.c", 9, "ml_f")],
            bindings=[SymbolRow("ml_f", "", "lib.ml", 2, "external f : ...")],
        )
        rebuilt = InterfaceSummary.from_dict(original.to_dict())
        assert rebuilt == original

    def test_from_dict_tolerates_missing_groups(self):
        rebuilt = InterfaceSummary.from_dict({"unit": "a.c"})
        assert rebuilt.unit == "a.c"
        assert rebuilt.exports == []
        assert rebuilt.bindings == []


class TestLinkerRules:
    def test_empty_corpus_links_clean(self):
        report = Linker().report()
        assert list(report.diagnostics) == []
        assert report.units == 0

    def test_conflicting_decl_across_units(self):
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                exports=[export("helper", "value(value, value)", "a.c", 4)],
            )
        )
        linker.add(
            summary(
                "b.c",
                externs=[export("helper", "value(value)", "b.c", 2)],
            )
        )
        report = linker.report()
        assert kinds(report) == ["LINK_CONFLICTING_DECL"]
        (diag,) = report.diagnostics
        assert diag.category is Category.ERROR
        assert "helper" in diag.message
        assert "a.c:4" in diag.message and "b.c:2" in diag.message

    def test_identical_decls_do_not_conflict(self):
        linker = Linker()
        linker.add(summary("a.c", exports=[export("helper", file="a.c")]))
        linker.add(summary("b.c", externs=[export("helper", file="b.c")]))
        assert kinds(linker.report()) == []

    def test_duplicate_definition_requires_a_reference(self):
        # identical private helpers copied between units (the parser
        # drops `static`) must stay silent until something links to them
        linker = Linker()
        linker.add(summary("a.c", exports=[export("helper", file="a.c")]))
        linker.add(summary("b.c", exports=[export("helper", file="b.c")]))
        assert kinds(linker.report()) == []

        referenced = Linker()
        referenced.add(summary("a.c", exports=[export("helper", file="a.c")]))
        referenced.add(summary("b.c", exports=[export("helper", file="b.c")]))
        referenced.add(
            summary("c.c", externs=[export("helper", file="c.c")])
        )
        assert kinds(referenced.report()) == ["LINK_DUPLICATE_DEFINITION"]

    def test_duplicate_registration_wins_over_duplicate_definition(self):
        linker = Linker()
        for unit in ("a.c", "b.c"):
            linker.add(
                summary(
                    unit,
                    exports=[export("Java_M_f", "int(int)", unit, 5)],
                    registrations=[
                        SymbolRow("Java_M_f", "int(int)", unit, 5, "Java_M_f")
                    ],
                )
            )
        report = linker.report()
        assert kinds(report) == ["LINK_DUPLICATE_REGISTRATION"]
        (diag,) = report.diagnostics
        assert "a.c" in diag.message and "b.c" in diag.message

    def test_same_key_registered_twice_in_one_unit_is_flagged(self):
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                exports=[export("ml_f", file="a.c")],
                registrations=[
                    SymbolRow("f", "", "a.c", 9, "ml_f"),
                    SymbolRow("f", "", "a.c", 10, "ml_f"),
                ],
            )
        )
        assert kinds(linker.report()) == ["LINK_DUPLICATE_REGISTRATION"]

    def test_unresolved_registration_target_is_a_warning(self):
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                registrations=[SymbolRow("f", "", "a.c", 9, "ml_vanish")],
            )
        )
        report = linker.report()
        assert kinds(report) == ["LINK_UNRESOLVED_EXTERN"]
        (diag,) = report.diagnostics
        assert diag.category is Category.WARNING
        assert "ml_vanish" in diag.message
        assert "registered by" in diag.message

    def test_unresolved_host_binding_is_a_warning(self):
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                bindings=[SymbolRow("ml_missing", "", "lib.ml", 3)],
            )
        )
        (diag,) = linker.report().diagnostics
        assert diag.kind is Kind.LINK_UNRESOLVED_EXTERN
        assert "bound by" in diag.message

    def test_plain_undefined_extern_is_not_unresolved(self):
        # an extern prototype alone (a libc declaration, say) creates no
        # obligation; only registrations and host bindings do
        linker = Linker()
        linker.add(summary("a.c", externs=[export("memcpy", "void*(...)")]))
        assert kinds(linker.report()) == []

    def test_bindings_dedupe_across_units(self):
        # every unit of an OCaml corpus reports the same shared host
        # externals; the report must count and check them once
        linker = Linker()
        binding = SymbolRow("ml_f", "", "lib.ml", 2, "external f")
        linker.add(
            summary(
                "a.c", exports=[export("ml_f", file="a.c")],
                bindings=[binding],
            )
        )
        linker.add(summary("b.c", bindings=[binding]))
        report = linker.report()
        assert report.bindings == 1
        assert kinds(report) == []


class TestLinkReport:
    def _report(self):
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                exports=[export("ml_f", file="a.c", line=3)],
                bindings=[SymbolRow("ml_gone", "", "lib.ml", 7)],
            )
        )
        return linker.report()

    def test_render_has_header_and_footer(self):
        text = self._report().render()
        assert text.startswith("== link")
        assert "1 unit(s)" in text
        assert "0 error(s), 1 warning(s)" in text

    def test_to_dict_is_json_shaped(self):
        data = self._report().to_dict()
        assert data["units"] == 1
        assert data["tally"]["warnings"] == 1
        (diag,) = data["diagnostics"]
        assert diag["kind"] == "LINK_UNRESOLVED_EXTERN"

    def test_add_dict_accepts_serialized_summaries(self):
        linker = Linker()
        linker.add_dict(
            summary("a.c", exports=[export("ml_f", file="a.c")]).to_dict()
        )
        assert linker.report().exports == 1


class TestHostExports:
    """Host-side definitions (Rust ``#[no_mangle]``) join the link: they
    resolve externs, collide with C bodies, and their rendered types
    participate in conflicting-decl comparison."""

    def test_host_export_resolves_an_extern(self):
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                externs=[SymbolRow("rs_go", "int(int)", "a.c", 2)],
                host_exports=[
                    SymbolRow("rs_go", "int(int)", "lib.rs", 5)
                ],
            )
        )
        report = linker.report()
        assert kinds(report) == []
        assert report.host_exports == 1

    def test_unmatched_typed_binding_warns_unresolved(self):
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                bindings=[
                    SymbolRow("c_hook", "void()", "lib.rs", 3, "fn c_hook()")
                ],
            )
        )
        assert kinds(linker.report()) == ["LINK_UNRESOLVED_EXTERN"]

    def test_host_export_collides_with_a_c_definition(self):
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                exports=[export("rs_go", "int(int)", "a.c", 4)],
                externs=[SymbolRow("rs_go", "int(int)", "b.c", 1)],
                host_exports=[
                    SymbolRow("rs_go", "int(int)", "lib.rs", 5)
                ],
            )
        )
        assert kinds(linker.report()) == ["LINK_DUPLICATE_DEFINITION"]

    def test_host_claim_type_joins_conflict_comparison(self):
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                exports=[export("c_len", "size_t(char *)", "a.c", 4)],
                bindings=[
                    SymbolRow(
                        "c_len", "uintptr_t(char *)", "lib.rs", 2, "fn c_len"
                    )
                ],
            )
        )
        assert kinds(linker.report()) == ["LINK_CONFLICTING_DECL"]

    def test_stdint_aliases_do_not_conflict(self):
        # a Rust host renders u32 as `unsigned int`; a bindgen header
        # spells `uint32_t` — same platform type, not a link hazard
        linker = Linker()
        linker.add(
            summary(
                "a.c",
                exports=[export("c_crc", "uint32_t(uint8_t *)", "a.c", 4)],
                bindings=[
                    SymbolRow(
                        "c_crc",
                        "unsigned int(unsigned char *)",
                        "lib.rs",
                        2,
                        "fn c_crc",
                    )
                ],
            )
        )
        assert kinds(linker.report()) == []

    def test_shared_host_rows_dedupe_across_units(self):
        # every unit of a batch carries the same host-side rows; the
        # linker must not read N copies as N definitions
        linker = Linker()
        host_row = SymbolRow("rs_go", "int(int)", "lib.rs", 5)
        for unit in ("a.c", "b.c"):
            linker.add(
                summary(
                    unit,
                    externs=[SymbolRow("rs_go", "int(int)", unit, 2)],
                    host_exports=[host_row],
                )
            )
        report = linker.report()
        assert kinds(report) == []
        assert report.host_exports == 1

    def test_footer_mentions_host_exports_only_when_present(self):
        linker = Linker()
        linker.add(summary("a.c", exports=[export("ml_f", file="a.c")]))
        assert "host export" not in linker.report().render()
        linker.add(
            summary(
                "b.c",
                host_exports=[SymbolRow("rs_go", "int()", "lib.rs", 1)],
            )
        )
        assert "1 host export(s)" in linker.report().render()

    def test_host_exports_round_trip_summary_serialization(self):
        original = summary(
            "a.c",
            host_exports=[
                SymbolRow("rs_go", "int(int)", "lib.rs", 5, "fn rs_go")
            ],
        )
        rebuilt = InterfaceSummary.from_dict(original.to_dict())
        assert rebuilt == original


class TestDialectExtraction:
    """Every dialect's analyze() must attach a usable summary."""

    CORPORA = {
        "ocaml": "examples/link/ocaml",
        "pyext": "examples/link/pyext",
        "jni": "examples/link/jni",
        "rust": "examples/link/rust",
    }

    #: the exact seeded bugs per corpus (2 errors + 1 warning each)
    EXPECTED = {
        "ocaml": [
            "LINK_CONFLICTING_DECL",
            "LINK_DUPLICATE_DEFINITION",
            "LINK_UNRESOLVED_EXTERN",
        ],
        "pyext": [
            "LINK_CONFLICTING_DECL",
            "LINK_DUPLICATE_REGISTRATION",
            "LINK_UNRESOLVED_EXTERN",
        ],
        "jni": [
            "LINK_CONFLICTING_DECL",
            "LINK_DUPLICATE_REGISTRATION",
            "LINK_UNRESOLVED_EXTERN",
        ],
        "rust": [
            "LINK_CONFLICTING_DECL",
            "LINK_DUPLICATE_DEFINITION",
            "LINK_UNRESOLVED_EXTERN",
        ],
    }

    @pytest.mark.parametrize("dialect", sorted(CORPORA))
    def test_seeded_corpus_is_per_unit_clean_but_link_dirty(self, dialect):
        project = Project.from_directory(
            self.CORPORA[dialect], dialect=dialect
        )
        report = run_batch(project.to_requests(), jobs=1, cache=None)
        linker = Linker()
        for result in report.results:
            assert result.failure is None
            assert list(result.diagnostics) == []
            assert result.summary is not None
            linker.add_dict(result.summary)
        linker.add_host(host_summary_of(project))
        link_report = linker.report()
        assert kinds(link_report) == sorted(self.EXPECTED[dialect])
        assert link_report.tally()["errors"] == 2
        assert link_report.tally()["warnings"] == 1

    def test_summaries_survive_result_serialization(self):
        from repro.engine import CheckResult

        project = Project.from_directory(
            self.CORPORA["ocaml"], dialect="ocaml"
        )
        report = run_batch(project.to_requests(), jobs=1, cache=None)
        linker = Linker()
        for result in report.results:
            rebuilt = CheckResult.from_dict(result.to_dict())
            assert rebuilt.summary == result.summary
            linker.add_dict(rebuilt.summary)
        linker.add_host(host_summary_of(project))
        assert kinds(linker.report()) == sorted(self.EXPECTED["ocaml"])


#: one planted trio: a two-argument definition, an identical duplicate of
#: a second function, and a user unit whose one-argument prototype
#: conflicts with the first and whose extern references the second.  Each
#: trio yields exactly one LINK_CONFLICTING_DECL and one
#: LINK_DUPLICATE_DEFINITION, and every unit is clean in isolation.
PLANT_A = """\
long plant_confl_{j}(long a, long b)
{{
    return a + b;
}}

long plant_dup_{j}(long x)
{{
    return x + 1;
}}
"""
PLANT_B = """\
long plant_dup_{j}(long x)
{{
    return x + 1;
}}
"""
PLANT_C = """\
long plant_confl_{j}(long a);
extern long plant_dup_{j}(long x);

long plant_user_{j}(long x)
{{
    return plant_confl_{j}(x) + plant_dup_{j}(x);
}}
"""


def test_link_sweep_finds_every_planted_conflict(tmp_path, capsys):
    """Planted trios among renamed clean glue units: the streamed link
    sweep reports each trio's two errors and nothing else."""
    from repro import cli

    glue = Path(__file__).resolve().parent.parent / "examples" / "glue"
    for index in range(6):
        for name in ("counter.ml", "counter_stubs.c"):
            text = (glue / name).read_text().replace("counter", f"counter{index:03d}")
            (tmp_path / f"u{index:03d}_{name}").write_text(text)
    plants = 3
    for j in range(plants):
        for suffix, template in (("a", PLANT_A), ("b", PLANT_B), ("c", PLANT_C)):
            (tmp_path / f"plant{j}_{suffix}.c").write_text(template.format(j=j))
    code = cli.main(
        ["link", str(tmp_path), "--dialect", "ocaml", "--no-cache",
         "--quiet", "--format", "json"]
    )
    document = json.loads(capsys.readouterr().out)
    counts = {}
    for diag in document["link"]["diagnostics"]:
        counts[diag["kind"]] = counts.get(diag["kind"], 0) + 1
    assert counts == {
        "LINK_CONFLICTING_DECL": plants,
        "LINK_DUPLICATE_DEFINITION": plants,
    }
    assert document["stream"]["failures"] == 0
    assert document["stream"]["tally"]["errors"] == 0
    assert document["stream"]["tally"]["warnings"] == 0
    assert code == 2 * plants
