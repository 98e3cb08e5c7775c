"""The dialect registry and the BoundaryDialect contract."""

import pytest

from repro.boundary import (
    CORPUS_UNIT_SUFFIXES,
    UNIT_SUFFIXES,
    BoundaryDialect,
    available_dialects,
    get_dialect,
    register_dialect,
    run_pipeline,
    unit_dependencies,
)
from repro.cfront.lower import lower_unit
from repro.cfront.parser import parse_c
from repro.core.checker import InitialEnv
from repro.diagnostics import DiagnosticBag, Kind
from repro.engine.jobs import CheckRequest
from repro.engine.worker import analyze_request
from repro.linker.summary import InterfaceSummary
from repro.rules import rules_pack
from repro.source import DUMMY_SPAN, SourceFile


class TestRegistry:
    def test_builtin_dialects_available(self):
        assert set(available_dialects()) >= {"ocaml", "pyext", "jni", "rust"}

    def test_get_dialect_resolves(self):
        assert get_dialect("ocaml").name == "ocaml"
        assert get_dialect("pyext").name == "pyext"
        assert get_dialect("jni").name == "jni"
        assert get_dialect("rust").name == "rust"

    def test_unknown_dialect_raises_with_known_names(self):
        with pytest.raises(ValueError, match="rustffi.*known.*ocaml"):
            get_dialect("rustffi")

    def test_dialects_satisfy_the_protocol(self):
        for name in ("ocaml", "pyext", "jni", "rust"):
            assert isinstance(get_dialect(name), BoundaryDialect)

    def test_third_dialect_registration(self):
        """A new dialect is a handful of hooks: this one reads plain C,
        seeds nothing, and adds one pass, and the shared pipeline does
        the rest."""

        class Stub:
            name = "stub-test-dialect"
            host_suffixes = ()

            def builtin_entries(self):
                return {}

            def polymorphic_builtins(self):
                return frozenset()

            def global_entries(self):
                return {}

            def alloc_result_tags(self):
                return {}

            def parse(self, source):
                return parse_c(source)

            def initial_env(self, request, units):
                return InitialEnv()

            def lower(self, unit):
                return lower_unit(unit)

            def passes(self, request, units):
                bag = DiagnosticBag()
                for unit in units:
                    bag.emit(Kind.GLOBAL_VALUE, DUMMY_SPAN, "stub pass ran")
                return bag.diagnostics

            def summarize(self, request, units):
                return InterfaceSummary(unit=request.name, dialect=self.name)

            def analyze(self, request):
                return run_pipeline(self, request)

        try:
            register_dialect(Stub())
            assert "stub-test-dialect" in available_dialects()
            assert isinstance(get_dialect("stub-test-dialect"), BoundaryDialect)
            source = SourceFile("unit.c", "long f(long x) { return x; }\n")
            report = analyze_request(
                CheckRequest(
                    name="unit.c",
                    c_sources=(source,),
                    dialect="stub-test-dialect",
                )
            )
            assert [d.message for d in report.diagnostics] == ["stub pass ran"]
            assert "f" in report.signatures
            assert report.summary["dialect"] == "stub-test-dialect"
        finally:
            from repro import boundary

            boundary._REGISTRY.pop("stub-test-dialect", None)


class TestSuffixMaps:
    def test_ocaml_suffixes(self):
        dialect = get_dialect("ocaml")
        assert dialect.host_suffixes == (".ml", ".mli")
        assert ".c" in UNIT_SUFFIXES

    def test_pyext_has_no_host_side(self):
        dialect = get_dialect("pyext")
        assert dialect.host_suffixes == ()
        assert ".c" in UNIT_SUFFIXES

    def test_jni_has_no_host_side(self):
        dialect = get_dialect("jni")
        assert dialect.host_suffixes == ()
        assert ".c" in UNIT_SUFFIXES

    def test_rust_reads_rs_hosts(self):
        dialect = get_dialect("rust")
        assert dialect.host_suffixes == (".rs",)
        assert ".c" in UNIT_SUFFIXES


class TestDialectSpec:
    """A dialect's spec is the dialect object itself, its only
    declaration: its name keys the registry and the rule pack, and every
    dialect reads C through the same suffixes and dependency rule."""

    def test_every_builtin_dialect_has_a_spec(self):
        for name in ("ocaml", "pyext", "jni", "rust"):
            assert get_dialect(name).name == name
        assert UNIT_SUFFIXES == (".c", ".h")
        assert CORPUS_UNIT_SUFFIXES == (".c",)

    def test_spec_defaults_rule_pack_to_the_name(self):
        for name in ("ocaml", "pyext", "jni", "rust"):
            assert rules_pack(name)
            assert {rule.dialect for rule in rules_pack(name)} == {name}

    def test_dependencies_are_hosts_then_quoted_includes(self):
        request = CheckRequest(
            name="glue.c",
            c_sources=(
                SourceFile(
                    "glue.c",
                    '#include <caml/mlvalues.h>\n#include "a.h"\n#include "b.h"\n',
                ),
            ),
            ocaml_sources=(SourceFile("lib.ml", ""), SourceFile("lib.mli", "")),
        )
        assert unit_dependencies(request) == ("lib.ml", "lib.mli", "a.h", "b.h")


class TestSeedIsolation:
    """The PR 5 contract: seed tables are memoized per process, and that
    sharing is *safe* — builtins are polymorphic (instantiated afresh at
    each call site) and variable bindings live in each run's Unifier, so
    back-to-back analyses must not influence each other."""

    def test_builtin_entries_are_memoized(self):
        for name in ("ocaml", "pyext", "jni"):
            dialect = get_dialect(name)
            first = dialect.builtin_entries()
            second = dialect.builtin_entries()
            probe = next(iter(first))
            assert first[probe] is second[probe]

    def test_every_builtin_is_polymorphic(self):
        # memoized entries are only sound while every builtin is
        # instantiated per call site; a non-polymorphic builtin would be
        # unified in place and couple call sites within one run
        for name in ("ocaml", "pyext", "jni"):
            dialect = get_dialect(name)
            assert set(dialect.builtin_entries()) <= set(
                dialect.polymorphic_builtins()
            )

    def test_shared_seeds_do_not_leak_between_runs(self):
        from repro.api import Project

        ml = "type t = A of int | B\nexternal f : t -> int = 'ml_f'".replace(
            "'", '"'
        )
        c = (
            "value ml_f(value x)\n"
            "{\n"
            "    if (Is_long(x)) return Val_int(0);\n"
            "    return Val_int(Int_val(Field(x, 0)));\n"
            "}\n"
        )

        def run():
            report = Project().add_ocaml(ml).add_c(c).analyze()
            return (
                [d.render() for d in report.diagnostics],
                dict(report.signatures),
            )

        assert run() == run()


class TestCacheKeyIsolation:
    """Four dialects coexist without cache-key collisions: the same C
    text must never replay another dialect's cached analysis."""

    def test_same_source_four_dialects_four_keys(self):
        from repro.engine.jobs import CheckRequest
        from repro.source import SourceFile

        source = SourceFile("unit.c", "int f(void) { return 0; }\n")
        keys = {
            dialect: CheckRequest(
                name="unit.c", c_sources=(source,), dialect=dialect
            ).cache_key()
            for dialect in ("ocaml", "pyext", "jni", "rust")
        }
        assert len(set(keys.values())) == 4

    def test_rust_host_side_participates_in_the_key(self):
        from repro.engine.jobs import CheckRequest
        from repro.source import SourceFile

        unit = SourceFile("unit.c", "int f(void) { return 0; }\n")
        without = CheckRequest(
            name="unit.c", c_sources=(unit,), dialect="rust"
        ).cache_key()
        with_host = CheckRequest(
            name="unit.c",
            c_sources=(unit,),
            ocaml_sources=(
                SourceFile("lib.rs", 'extern "C" { fn f() -> i32; }\n'),
            ),
            dialect="rust",
        ).cache_key()
        assert without != with_host

    def test_schema_version_bumped_for_rule_ids_and_the_fourth_dialect(self):
        from repro.engine.jobs import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION >= 8
