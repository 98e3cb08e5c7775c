"""Tests for the high-level API surface."""

from pathlib import Path

import pytest

from repro import (
    AnalysisReport,
    Category,
    Kind,
    Options,
    Project,
    SourceFile,
    analyze_project,
    check_c_source,
)
from repro.boundary import get_dialect
from repro.core.checker import Checker
from repro.source import count_code_lines

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestProject:
    def test_fluent_building(self):
        project = (
            Project()
            .add_ocaml('external f : int -> int = "ml_f"', "a.ml")
            .add_c("value ml_f(value x) { return x; }", "a.c")
        )
        assert len(project.ocaml_sources) == 1
        assert len(project.c_sources) == 1
        assert project.ocaml_sources[0].filename == "a.ml"

    def test_source_file_objects_accepted(self):
        source = SourceFile("x.c", "int f(void) { return 0; }")
        report = analyze_project([], [source])
        assert isinstance(report, AnalysisReport)

    def test_repository_accessible(self):
        project = Project().add_ocaml("type t = A | B")
        repo = project.build_repository()
        assert repo.resolve("t", ()) is not None

    def test_lower_merges_multiple_c_files(self):
        project = (
            Project()
            .add_c("int f(void) { return 0; }", "a.c")
            .add_c("int g(void) { return 1; }", "b.c")
        )
        program = project.lower()
        assert {fn.name for fn in program.functions} == {"f", "g"}

    def test_diagnostics_point_at_right_file(self):
        project = (
            Project()
            .add_ocaml('external f : int -> int = "ml_f"', "lib.ml")
            .add_c("value ml_f(value x) { return Val_int(x); }", "stubs.c")
        )
        report = project.analyze()
        assert report.errors[0].span.filename == "stubs.c"


class TestProjectPhases:
    """``Project.lower()`` and ``build_initial_env()`` run the project's
    own dialect: the same parse, ``Γ_I`` and lowering as its analysis."""

    @pytest.mark.parametrize(
        "dialect, hosts, units, gamma_size",
        [
            ("ocaml", ["glue/counter.ml"], ["glue/counter_stubs.c"], 2),
            ("pyext", [], ["pyext/clean_module.c"], 4),
            ("jni", [], ["jni/clean_native.c"], 5),
            (
                "rust",
                ["rust/clean_bindings/lib.rs"],
                ["rust/clean_bindings/glue.c"],
                0,
            ),
        ],
        ids=["ocaml", "pyext", "jni", "rust"],
    )
    def test_phases_follow_the_dialect(self, dialect, hosts, units, gamma_size):
        project = Project(dialect=dialect)
        for name in hosts:
            project.add_ocaml(SourceFile(name, (EXAMPLES / name).read_text()))
        for name in units:
            project.add_c(SourceFile(name, (EXAMPLES / name).read_text()))
        initial_env = project.build_initial_env()
        assert len(initial_env.functions) == gamma_size
        report = Checker(
            project.lower(), initial_env, dialect=get_dialect(dialect)
        ).run()
        full = project.analyze()
        # the clean examples' dialect passes add nothing, so the checker
        # alone must reproduce the whole analysis
        assert [d.render() for d in report.diagnostics] == [
            d.render() for d in full.diagnostics
        ]
        assert set(report.signatures) == set(full.signatures)


class TestFromDirectoryHardening:
    """Undecodable and empty files are skipped with a warning, not fatal."""

    def _tree(self, tmp_path):
        (tmp_path / "lib.ml").write_text(
            'external f : int -> int = "ml_f"\n'
        )
        (tmp_path / "stubs.c").write_text(
            "value ml_f(value x) { return x; }\n"
        )
        return tmp_path

    def test_undecodable_file_is_skipped_with_warning(self, tmp_path):
        self._tree(tmp_path)
        (tmp_path / "binary.c").write_bytes(b"\xff\xfe\x00\x80garbage")
        with pytest.warns(UserWarning, match="unreadable source.*binary.c"):
            project = Project.from_directory(tmp_path)
        assert [s.filename for s in project.c_sources] == [
            str(tmp_path / "stubs.c")
        ]

    def test_empty_file_is_skipped_with_warning(self, tmp_path):
        self._tree(tmp_path)
        (tmp_path / "empty.c").write_text("")
        (tmp_path / "blank.ml").write_text("   \n\t\n")
        with pytest.warns(UserWarning, match="empty source"):
            project = Project.from_directory(tmp_path)
        assert len(project.c_sources) == 1
        assert len(project.ocaml_sources) == 1

    def test_healthy_tree_emits_no_warnings(self, tmp_path, recwarn):
        self._tree(tmp_path)
        project = Project.from_directory(tmp_path)
        assert len(project.c_sources) == 1
        assert not [w for w in recwarn if w.category is UserWarning]

    def test_skipped_files_still_analyze_the_rest(self, tmp_path):
        self._tree(tmp_path)
        (tmp_path / "binary.c").write_bytes(b"\xff\xfe\x00\x80")
        with pytest.warns(UserWarning):
            report = Project.from_directory(tmp_path).analyze()
        assert isinstance(report, AnalysisReport)

    def test_pyext_scan_takes_only_c_files(self, tmp_path):
        (tmp_path / "mod.c").write_text("int f(void) { return 0; }\n")
        (tmp_path / "lib.ml").write_text("type t = A\n")
        project = Project.from_directory(tmp_path, dialect="pyext")
        assert len(project.c_sources) == 1
        assert project.ocaml_sources == []
        assert project.dialect == "pyext"


class TestAnalyzeProject:
    def test_multiple_ml_files_share_repository(self):
        ml_types = "type t = A of int | B"
        ml_externals = 'external get : t -> int = "ml_get"'
        c = """
        value ml_get(value x)
        {
            if (Is_long(x)) return Val_int(0);
            return Field(x, 0);
        }
        """
        report = analyze_project([ml_types, ml_externals], [c])
        assert not report.diagnostics

    def test_multiple_c_files_share_function_env(self):
        # helper defined in one file allocates; caller in another file
        ml = 'external f : string -> string = "ml_f"'
        helper = """
        value make_cell(value v)
        {
            CAMLparam1(v);
            CAMLlocal1(r);
            r = caml_alloc(1, 0);
            Store_field(r, 0, v);
            CAMLreturn(r);
        }
        """
        caller = """
        value make_cell(value v);
        value ml_f(value s)
        {
            value c = make_cell(s);
            return s;
        }
        """
        report = analyze_project([ml], [helper, caller])
        assert Kind.UNPROTECTED_VALUE in [d.kind for d in report.diagnostics]

    def test_options_threaded(self):
        ml = 'external f : string -> string ref = "ml_f"'
        c = """
        value ml_f(value s)
        {
            value r = caml_alloc(1, 0);
            Store_field(r, 0, s);
            return r;
        }
        """
        strict = analyze_project([ml], [c])
        relaxed = analyze_project([ml], [c], Options(gc_effects=False))
        assert strict.tally()["errors"] == 1
        assert relaxed.tally()["errors"] == 0

    def test_check_c_source_shortcut(self):
        report = check_c_source("int f(void) { return 0; }")
        assert not report.diagnostics

    def test_report_statistics(self):
        report = check_c_source("int f(void) { return 0; }")
        assert report.elapsed_seconds >= 0
        assert report.unification_steps >= 0
        assert "f" in report.function_results


class TestSourceHelpers:
    def test_count_code_lines_skips_blanks(self):
        assert count_code_lines("a\n\n  \nb\n") == 2

    def test_source_file_positions(self):
        source = SourceFile("t.c", "ab\ncd")
        assert source.position(0).line == 1
        assert source.position(3).line == 2
        assert source.position(3).column == 1
        assert source.line_text(2) == "cd"
        assert source.line_count == 2

    def test_span_merge(self):
        from repro.source import Span

        source = SourceFile("t.c", "hello world")
        first = source.span(0, 2)
        last = source.span(6, 11)
        merged = Span.merge(first, last)
        assert merged.start.offset == 0
        assert merged.end.offset == 11
        with pytest.raises(ValueError):
            Span.merge(first, SourceFile("u.c", "x").span(0, 1))


class TestDiagnosticsAPI:
    def test_category_tally_keys(self):
        report = check_c_source("int f(void) { return 0; }")
        assert set(report.tally()) == {
            "errors",
            "warnings",
            "false_positives",
            "imprecision",
        }

    def test_every_kind_has_category(self):
        for kind in Kind:
            assert isinstance(kind.category, Category)
            assert kind.summary

    def test_bag_iteration_and_len(self):
        from repro.diagnostics import DiagnosticBag
        from repro.source import DUMMY_SPAN

        bag = DiagnosticBag()
        assert not bag
        bag.emit(Kind.TYPE_MISMATCH, DUMMY_SPAN, "one")
        bag.emit(Kind.GLOBAL_VALUE, DUMMY_SPAN, "two")
        assert len(bag) == 2
        assert len(list(bag)) == 2
        assert bag.count(Category.ERROR) == 1
        assert bag.count(Category.IMPRECISION) == 1
