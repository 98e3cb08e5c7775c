"""End-to-end rust dialect: the acceptance-criteria scenarios."""

from pathlib import Path

from repro.api import Project
from repro.boundary import unit_dependencies
from repro.diagnostics import Kind
from repro.source import SourceFile

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"


def analyze(rust_text, c_text, name="glue.c"):
    project = Project(dialect="rust")
    project.add_ocaml(SourceFile("lib.rs", rust_text))
    project.add_c(SourceFile(name, c_text))
    return project.analyze()


def analyze_example(subdir):
    root = EXAMPLES / subdir
    project = Project.from_directory(root, dialect="rust")
    return project.analyze()


class TestExampleCorpus:
    def test_clean_bindings_have_zero_findings(self):
        report = analyze_example("rust/clean_bindings")
        tally = report.tally()
        assert tally["errors"] == 0
        assert tally["warnings"] == 0

    def test_bad_bindings_cover_every_rule_in_the_pack(self):
        report = analyze_example("rust/bad_bindings")
        kinds = {d.kind for d in report.diagnostics}
        assert Kind.RUST_DECL_MISMATCH in kinds
        assert Kind.RUST_PLATFORM_WIDTH in kinds
        assert Kind.RUST_PTR_INT_CONFUSION in kinds
        assert Kind.RUST_ENUM_REPR in kinds
        assert Kind.RUST_STR_PASSING in kinds

    def test_bad_bindings_error_count_is_stable(self):
        # the CI smoke gate pins the batch exit status to this number
        report = analyze_example("rust/bad_bindings")
        assert report.tally()["errors"] == 6

    def test_bad_bindings_defects_land_on_the_right_symbols(self):
        report = analyze_example("rust/bad_bindings")
        by_fn = {(d.kind, d.function) for d in report.diagnostics}
        assert (Kind.RUST_DECL_MISMATCH, "c_init") in by_fn
        assert (Kind.RUST_PLATFORM_WIDTH, "c_buf_len") in by_fn
        assert (Kind.RUST_DECL_MISMATCH, "c_crc") in by_fn
        assert (Kind.RUST_ENUM_REPR, "c_report_status") in by_fn
        assert (Kind.RUST_PTR_INT_CONFUSION, "rs_handle") in by_fn
        assert (Kind.RUST_STR_PASSING, "rs_log") in by_fn


class TestDeclarationAgreement:
    def test_agreeing_pair_is_clean(self):
        report = analyze(
            'extern "C" { fn c_add(a: i32, b: i32) -> i32; }\n',
            "int c_add(int a, int b) { return a + b; }\n",
        )
        assert not report.diagnostics

    def test_arity_mismatch(self):
        report = analyze(
            'extern "C" { fn c_add(a: i32) -> i32; }\n',
            "int c_add(int a, int b) { return a + b; }\n",
        )
        (diag,) = report.diagnostics
        assert diag.kind is Kind.RUST_DECL_MISMATCH
        assert "1 parameter(s) in Rust but 2 in C" in diag.message

    def test_diagnostic_points_at_the_rust_declaration(self):
        report = analyze(
            'extern "C" {\n    fn c_len(p: *const u8) -> usize;\n}\n',
            "int c_len(const uint8_t *p) { return p != 0; }\n",
        )
        (diag,) = report.diagnostics
        assert diag.span.filename == "lib.rs"
        assert diag.span.start.line == 2

    def test_export_mirror_is_checked_too(self):
        report = analyze(
            "#[no_mangle]\n"
            'pub extern "C" fn rs_go(n: usize) -> usize { n }\n',
            "extern int rs_go(int n);\n"
            "int drive(void) { return rs_go(1); }\n",
        )
        kinds = [d.kind for d in report.diagnostics]
        assert kinds == [
            Kind.RUST_PLATFORM_WIDTH,
            Kind.RUST_PLATFORM_WIDTH,
        ]

    def test_fn_without_c_mirror_is_skipped(self):
        # no declaration in this unit -> nothing to disagree with, and
        # rust-only hazards must not fire (they anchor to the mirror)
        report = analyze(
            'extern "C" { fn elsewhere(s: &str); }\n',
            "int unrelated(void) { return 0; }\n",
        )
        assert not report.diagnostics

    def test_prototype_suffices_as_mirror(self):
        report = analyze(
            'extern "C" { fn c_len(p: *const c_char) -> usize; }\n',
            "size_t c_len(const char *p);\n"
            "size_t use_it(void) { return c_len(\"x\"); }\n",
        )
        assert not report.diagnostics


class TestSummaries:
    def summary_of(self, rust_text, c_text):
        project = Project(dialect="rust")
        project.add_ocaml(SourceFile("lib.rs", rust_text))
        project.add_c(SourceFile("glue.c", c_text))
        return project.analyze().summary

    def test_imports_become_typed_bindings(self):
        summary = self.summary_of(
            'extern "C" { fn c_hash(p: *const u8, n: usize) -> u64; }\n',
            "uint64_t c_hash(const uint8_t *p, size_t n) { return n; }\n",
        )
        (row,) = summary["bindings"]
        assert row["symbol"] == "c_hash"
        assert row["type"] == "uint64_t(uint8_t *, size_t)"
        assert row["file"] == "lib.rs"

    def test_exports_become_host_exports(self):
        summary = self.summary_of(
            "#[no_mangle]\n"
            'pub extern "C" fn rs_tick(n: u32) -> u32 { n }\n',
            "extern unsigned int rs_tick(unsigned int n);\n"
            "unsigned int drive(void) { return rs_tick(1); }\n",
        )
        (row,) = summary["host_exports"]
        assert row["symbol"] == "rs_tick"
        assert row["type"] == "unsigned int(unsigned int)"
        assert row["detail"] == "fn rs_tick(u32) -> u32"


class TestDependencies:
    def test_rust_sources_and_quoted_includes_are_dependencies(self):
        project = Project(dialect="rust")
        project.add_ocaml(SourceFile("src/lib.rs", "pub fn x() {}\n"))
        project.add_c(
            SourceFile("glue.c", '#include "local.h"\nint f(void) { return 0; }\n')
        )
        request = project.to_request()
        deps = unit_dependencies(request)
        assert "src/lib.rs" in deps
        assert "local.h" in deps
