"""The central seed store and the on-disk artifact tier.

Covers the PR 10 acceptance points: every corruption mode an on-disk
cache can exhibit (stale schema, foreign registry fingerprint, garbage
bytes, truncation) falls back to rebuild without crashing; concurrent
warmup is safe; artifact-loaded seeds are observably identical to
freshly built ones; and :func:`repro.seeds.clear_seed_memos` is the one
invalidation point.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro import seeds
from repro.api import Project
from repro.boundary import get_dialect
from repro.engine import run_batch
from repro.engine.jobs import CheckRequest, repository_fingerprint
from repro.source import SourceFile

ML = "external make : int -> int = \"ml_counter_make\"\n"
C = """
#include <caml/mlvalues.h>
value ml_counter_make(value n) {
    return Val_int(Int_val(n));
}
"""


@pytest.fixture(autouse=True)
def _isolated_seed_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(seeds.SEED_DIR_ENV, str(tmp_path / "seeds"))
    seeds.clear_seed_memos()
    yield
    seeds.clear_seed_memos()


def _host_sources(tag: str = "counter") -> tuple[SourceFile, ...]:
    return (SourceFile(f"{tag}.ml", ML.replace("counter", tag)),)


def _request(tag: str = "counter") -> CheckRequest:
    return CheckRequest(
        name=f"{tag}.c",
        c_sources=(SourceFile(f"{tag}.c", C.replace("counter", tag)),),
        ocaml_sources=_host_sources(tag),
        dialect="ocaml",
    )


class TestSeedTables:
    def test_all_dialect_tables_register_centrally(self):
        tables = seeds.build_all_tables()
        for key in (
            "ocaml.builtin_entries",
            "ocaml.stdlib_declarations",
            "ocaml.base_tables",
            "pyext.parse_hints",
            "pyext.builtin_entries",
            "jni.parse_hints",
            "jni.lowering_return_types",
            "rust.parse_hints",
        ):
            assert key in tables, key

    def test_seed_table_memoizes(self):
        from repro.cfront.macros import builtin_entries

        assert builtin_entries() is builtin_entries()

    def test_cache_clear_escape_hatch(self):
        from repro.cfront.macros import builtin_entries

        first = builtin_entries()
        builtin_entries.cache_clear()
        again = builtin_entries()
        assert again is not first
        assert set(again) == set(first)

    def test_duplicate_table_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate seed table"):
            seeds.seed_table("ocaml.builtin_entries")(lambda: {})

    def test_prime_tables_ignores_unregistered_keys(self):
        installed = seeds.prime_tables({"no.such.table": {"x": 1}})
        assert installed == 0
        assert "no.such.table" not in seeds.build_all_tables()

    def test_clear_seed_memos_is_the_one_invalidation_point(self):
        from repro.cfront.macros import builtin_entries

        table = builtin_entries()
        dialect = get_dialect("ocaml")
        request = _request()
        repo = dialect.repository_for(request)
        seeds.clear_seed_memos()
        # both the table memo and the host memo went seed-cold
        assert builtin_entries() is not table
        stats = seeds.seed_stats()
        assert all(n == 0 for n in stats["host_memos"].values())
        assert dialect.repository_for(request) is not repo


class TestRegistryFingerprint:
    def test_stable_within_a_process(self):
        assert seeds.registry_fingerprint() == seeds.registry_fingerprint()

    def test_tracks_package_version(self, monkeypatch):
        before = seeds.registry_fingerprint()
        import repro

        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert seeds.registry_fingerprint() != before

    def test_foreign_fingerprint_artifact_is_invisible(self, monkeypatch):
        seeds.store_artifact("host-ocaml", "f" * 64, {"x": 1})
        assert seeds.load_artifact("host-ocaml", "f" * 64) == {"x": 1}
        # same artifact dir, different revision: never trusted, never read
        import repro

        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert seeds.load_artifact("host-ocaml", "f" * 64) is None


class TestArtifactCorruption:
    """Every on-disk failure mode is a miss, never a crash."""

    def _artifact_file(self):
        files = list(seeds.seed_dir().glob("*.seed"))
        assert len(files) == 1
        return files[0]

    def test_stale_schema_version_falls_back_to_rebuild(self):
        seeds.store_artifact("host-ocaml", "a" * 64, {"x": 1})
        path = self._artifact_file()
        envelope = pickle.loads(path.read_bytes())
        envelope["seed_schema"] = seeds.SEED_SCHEMA_VERSION - 1
        path.write_bytes(pickle.dumps(envelope))
        before = seeds.seed_stats()["artifact_rejects"]
        assert seeds.load_artifact("host-ocaml", "a" * 64) is None
        assert seeds.seed_stats()["artifact_rejects"] == before + 1

    def test_corrupted_bytes_fall_back_to_rebuild(self):
        seeds.store_artifact("host-ocaml", "b" * 64, {"x": 1})
        path = self._artifact_file()
        path.write_bytes(b"\x80\x05garbage that is not a pickle")
        assert seeds.load_artifact("host-ocaml", "b" * 64) is None

    def test_truncated_pickle_falls_back_to_rebuild(self):
        seeds.store_artifact("host-ocaml", "c" * 64, {"payload": list(range(1000))})
        path = self._artifact_file()
        path.write_bytes(path.read_bytes()[: 40])
        assert seeds.load_artifact("host-ocaml", "c" * 64) is None

    def test_wrong_kind_or_fingerprint_rejected(self):
        seeds.store_artifact("host-ocaml", "d" * 64, {"x": 1})
        assert seeds.load_artifact("host-rust", "d" * 64) is None
        assert seeds.load_artifact("host-ocaml", "e" * 64) is None

    def test_non_dict_envelope_rejected(self):
        seeds.store_artifact("host-ocaml", "a" * 64, {"x": 1})
        path = self._artifact_file()
        path.write_bytes(pickle.dumps(["not", "an", "envelope"]))
        assert seeds.load_artifact("host-ocaml", "a" * 64) is None

    def test_end_to_end_check_survives_corrupt_artifact(self):
        """A corrupt artifact under a real request's fingerprint must not
        change the analysis outcome."""
        request = _request()
        fingerprint = repository_fingerprint(request.ocaml_sources)
        registry = seeds.registry_fingerprint()
        path = seeds._artifact_path("host-ocaml", fingerprint, registry)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle at all")
        report = run_batch([request], jobs=1, cache=None)
        assert report.results[0].failure is None

    def test_disabled_tier_neither_reads_nor_writes(self, monkeypatch):
        monkeypatch.setenv(seeds.SEED_ARTIFACTS_ENV, "0")
        assert not seeds.store_artifact("host-ocaml", "a" * 64, {"x": 1})
        assert seeds.load_artifact("host-ocaml", "a" * 64) is None
        assert not list(seeds.seed_dir().glob("*.seed"))


class TestConcurrentWarmup:
    def test_parallel_warmup_static_is_safe(self):
        errors: list[BaseException] = []

        def warm():
            try:
                seeds.warmup_static()
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=warm) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        bundle = seeds.load_artifact("static", "tables")
        assert isinstance(bundle, dict) and bundle

    def test_parallel_host_memo_builds_one_result(self):
        dialect = get_dialect("ocaml")
        request = _request()
        results: list[object] = []
        errors: list[BaseException] = []

        def resolve():
            try:
                results.append(dialect.repository_for(request))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=resolve) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 8
        externals = {tuple(e.ml_name for e in r.externals) for r in results}
        assert len(externals) == 1

    def test_concurrent_writers_leave_no_torn_artifact(self):
        payload = {"table": list(range(500))}

        def write():
            seeds.store_artifact("static", "tables", payload)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seeds.load_artifact("static", "tables") == payload
        # no staged temp files leaked
        assert not list(seeds.seed_dir().glob(".tmp-*"))


class TestLoadedVsBuiltEquivalence:
    def test_artifact_loaded_repository_gives_identical_diagnostics(self):
        request = _request("shape")

        def diagnostics() -> list[str]:
            report = run_batch([request], jobs=1, cache=None)
            result = report.results[0]
            assert result.failure is None
            return [d.render() for d in result.diagnostics]

        built = diagnostics()  # cold build, writes the artifact through
        stats = seeds.seed_stats()
        assert stats["artifact_stores"] >= 1
        seeds.clear_seed_memos()
        loaded = diagnostics()  # same fingerprint now loads the pickle
        assert seeds.seed_stats()["artifact_loads"] >= 1
        assert built == loaded

    def test_warmup_then_analyze_matches_cold_analyze(self):
        sources = _host_sources("widget")
        result = seeds.warmup_hosts("ocaml", sources)
        assert result["hosts"] == 1
        request = CheckRequest(
            name="widget.c",
            c_sources=(SourceFile("widget.c", C.replace("counter", "widget")),),
            ocaml_sources=sources,
            dialect="ocaml",
        )
        seeds.clear_seed_memos()
        warmed = run_batch([request], jobs=1, cache=None)
        assert seeds.seed_stats()["artifact_loads"] >= 1
        seeds.clear_seed_memos()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(seeds.SEED_ARTIFACTS_ENV, "0")
            cold = run_batch([request], jobs=1, cache=None)
        render = lambda rep: [  # noqa: E731
            d.render() for d in rep.results[0].diagnostics
        ]
        assert render(warmed) == render(cold)


class TestWarmupAndPrune:
    def test_warmup_static_builds_and_stores_every_table(self):
        result = seeds.warmup_static()
        assert result["stored"]
        assert result["tables"] == len(seeds.registered_tables())
        seeds.clear_seed_memos()
        primed = seeds.prime_from_static_bundle()
        assert primed == result["tables"]

    def test_prime_from_static_bundle_runs_once_per_process(self):
        seeds.warmup_static()
        seeds.clear_seed_memos()
        assert seeds.prime_from_static_bundle() > 0
        assert seeds.prime_from_static_bundle() == 0

    def test_prune_evicts_oldest_beyond_limit(self):
        import os
        import time as _time

        # fingerprints must differ within the 24-char prefix the
        # artifact filename keeps
        fingerprints = [f"{index}" * 64 for index in range(6)]
        for index, fingerprint in enumerate(fingerprints):
            seeds.store_artifact("host-ocaml", fingerprint, {"i": index})
            # distinct mtimes so eviction order is deterministic
            path = seeds._artifact_path(
                "host-ocaml", fingerprint, seeds.registry_fingerprint()
            )
            stamp = _time.time() - (6 - index)
            os.utime(path, (stamp, stamp))
        assert seeds.prune_artifacts(limit=2) == 4
        remaining = list(seeds.seed_dir().glob("*.seed"))
        assert len(remaining) == 2
        assert seeds.load_artifact("host-ocaml", fingerprints[5]) == {"i": 5}

    def test_warmup_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "counter.ml").write_text(ML)
        assert main(["warmup", str(corpus), "--format", "json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["static"]["stored"]
        assert payload["hosts"]["hosts"] == 1


    def test_warmup_reads_the_host_set_the_sweep_reads(self, tmp_path, capsys):
        # an empty or undecodable host file is skipped by the sweep, so
        # warmup must skip it too or it stores an artifact under a
        # fingerprint no sweep ever asks for
        from repro.cli import main

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "counter.ml").write_text(ML)
        (corpus / "counter.c").write_text(C)
        (corpus / "empty.ml").write_text("\n")
        (corpus / "binary.ml").write_bytes(b"\xff\xfe\x00\x81")
        with pytest.warns(UserWarning, match="skipping"):
            assert main(["warmup", str(corpus), "--format", "json"]) == 0
        import json

        assert json.loads(capsys.readouterr().out)["hosts"]["hosts"] == 1
        seeds.clear_seed_memos()  # the link that follows is a cold process
        builds = seeds.seed_stats()["host_builds"]
        with pytest.warns(UserWarning, match="skipping"):
            assert main(["link", str(corpus), "--no-cache", "--quiet"]) == 0
        capsys.readouterr()
        assert seeds.seed_stats()["host_builds"] - builds == 0

    def test_warmup_missing_directory_exits_125(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["warmup", str(tmp_path / "absent")]) == 125
        assert "no such directory" in capsys.readouterr().err


class TestProjectAnalysisStillWorks:
    """Sanity: the memo layers sit under the public API transparently."""

    def test_project_analyze_with_artifacts(self):
        project = (
            Project()
            .add_ocaml(SourceFile("counter.ml", ML))
            .add_c(SourceFile("counter.c", C))
        )
        first = project.analyze()
        seeds.clear_seed_memos()
        second = project.analyze()
        assert [d.render() for d in first.diagnostics] == [
            d.render() for d in second.diagnostics
        ]


class TestStatusSurface:
    def test_server_status_carries_seeds(self, tmp_path):
        import json

        from repro.engine import IncrementalEngine
        from repro.server.service import AnalysisService

        (tmp_path / "counter.ml").write_text(ML)
        service = AnalysisService(IncrementalEngine(str(tmp_path)))
        status = service.handle(json.dumps({"id": 1, "method": "status"}))
        result = status["result"]
        assert "tables" in result["seeds"]
        assert "artifact_loads" in result["seeds"]
