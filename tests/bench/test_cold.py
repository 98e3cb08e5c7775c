"""The cold-path benchmark harness: corpus generator and frozen artifacts."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_cold", ROOT / "benchmarks" / "bench_cold.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cold():
    return _load()


class TestCorpusGenerator:
    def test_scales_every_dialect(self, cold):
        for dialect in ("ocaml", "pyext", "jni"):
            requests = cold.build_corpus(dialect, 7)
            assert len(requests) == 7
            assert all(r.dialect == dialect for r in requests)

    def test_units_are_textually_distinct(self, cold):
        # symbol renaming must defeat any content-addressed collapse
        for dialect in ("ocaml", "pyext", "jni"):
            requests = cold.build_corpus(dialect, 6)
            texts = {r.c_sources[0].text for r in requests}
            assert len(texts) == 6, dialect

    def test_generator_is_deterministic(self, cold):
        first = cold.build_corpus("pyext", 4)
        second = cold.build_corpus("pyext", 4)
        for left, right in zip(first, second):
            assert left.c_sources[0].text == right.c_sources[0].text

    def test_ocaml_units_keep_host_and_c_sides_consistent(self, cold):
        request = cold.build_corpus("ocaml", 1)[0]
        (host,) = request.ocaml_sources
        (unit,) = request.c_sources
        # the external's C symbol (renamed) must appear in both files
        assert "ml_counter000_make" in host.text
        assert "ml_counter000_make" in unit.text

    def test_renamed_units_analyze_cleanly(self, cold):
        from repro.engine import run_batch

        requests = cold.build_corpus("pyext", 2)
        report = run_batch(requests, jobs=1, cache=None)
        assert not report.failures
        assert report.tally()["errors"] == 0


class TestFrozenArtifacts:
    def test_goldens_are_committed_for_every_corpus(self, cold):
        for dialect in ("ocaml", "pyext", "jni"):
            assert cold.golden_path(dialect).is_file(), dialect

    def test_goldens_hold_no_absolute_paths(self, cold):
        # paths render relative to examples/, so the goldens compare
        # equal from any checkout location
        for dialect in ("ocaml", "pyext", "jni"):
            text = cold.golden_path(dialect).read_text()
            assert str(ROOT) not in text, dialect
            assert not re.search(r"(?:^|[\s(])/[\w.-]+/", text), dialect

    def test_example_diagnostics_match_the_goldens(self, cold):
        # the benchmark's equivalence gate, run as a plain test so plain
        # `pytest` catches diagnostic drift without running the gates
        for dialect in ("ocaml", "pyext", "jni"):
            dump = cold.corpus_diagnostics(dialect)
            assert dump == cold.golden_path(dialect).read_text(), dialect
