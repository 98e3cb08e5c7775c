"""The central seed store and the on-disk artifact tier.

Covers the PR 10 acceptance points: every corruption mode an on-disk
cache can exhibit (stale schema, foreign registry fingerprint, garbage
bytes, truncation) falls back to rebuild without crashing; concurrent
warmup is safe; artifact-loaded seeds are observably identical to
freshly built ones; and :func:`repro.seeds.clear_seed_memos` is the one
invalidation point.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import boundary, seeds
from repro.api import Project
from repro.boundary import get_dialect, register_dialect
from repro.engine import run_batch
from repro.engine.jobs import CheckRequest, repository_fingerprint
from repro.source import SourceFile

ROOT = Path(__file__).resolve().parent.parent
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

    def test_same_whether_or_not_dialects_are_imported(self, tmp_path):
        code = (
            "import sys; from repro import seeds; "
            "print(seeds.registry_fingerprint()); "
            "print(sorted(m for m in sys.modules if m.endswith('.dialect')))"
        )
        fresh, imported = _child(code, tmp_path).splitlines()
        assert imported == "[]"
        seeds.build_all_tables()  # imports every built-in dialect here
        assert seeds.registry_fingerprint() == fresh

    def test_third_party_dialect_changes_it(self):
        before = seeds.registry_fingerprint()
        try:
            register_dialect(SimpleNamespace(name="stub-fingerprint-dialect"))
            assert seeds.registry_fingerprint() != before
        finally:
            boundary._REGISTRY.pop("stub-fingerprint-dialect", None)
        assert seeds.registry_fingerprint() == before

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


class TestLazyDialectsReadTheBundle:
    def test_dialects_loaded_one_by_one_build_no_table(self, tmp_path):
        # one dialect after another, each imported only when its turn
        # comes: every host interface warmup stored loads, none rebuilds
        code = """
import json, sys
from repro import seeds
from repro.api import Project
for dialect, corpus in (
    ("ocaml", "glue"),
    ("rust", "rust/clean_bindings"),
    ("pyext", "pyext"),
    ("jni", "jni"),
):
    assert "repro.jni.dialect" not in sys.modules
    Project.from_directory(f"examples/{corpus}", dialect).analyze()
print(json.dumps(seeds.seed_stats()))
"""
        for dialect, corpus in (("ocaml", "glue"), ("rust", "rust/clean_bindings")):
            warm = f"main(['warmup', 'examples/{corpus}', '--dialect', '{dialect}'])"
            _child(f"from repro.cli import main; {warm}", tmp_path)
        stats = json.loads(_child(code, tmp_path))
        assert stats["host_builds"] == 0
        assert stats["artifact_loads"] == 2
        assert stats["artifact_rejects"] == 0


def _child(code: str, seed_dir: Path) -> str:
    """stdout of ``code`` run by a fresh interpreter from the repo root."""
    proc = _run([sys.executable, "-c", code], ROOT, seed_dir)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli(argv: list, cwd: Path, seed_dir: Path, artifacts: str = "1") -> str:
    """stdout of ``mlffi-check argv`` run by a fresh interpreter in ``cwd``."""
    proc = _run(
        [sys.executable, "-m", "repro.cli", *argv], cwd, seed_dir, artifacts
    )
    assert proc.returncode < 125, proc.stderr
    return proc.stdout


def _run(command: list, cwd: Path, seed_dir: Path, artifacts: str = "1"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env[seeds.SEED_DIR_ENV] = str(seed_dir)
    env[seeds.SEED_ARTIFACTS_ENV] = artifacts
    return subprocess.run(
        command, capture_output=True, text=True, cwd=cwd, env=env, timeout=120
    )


class TestConcurrentWarmup:
    def test_parallel_warmup_static_is_safe(self):
        seeds.build_all_tables()  # import every dialect up front
        seeds.clear_seed_memos()
        builds = seeds.seed_stats()["table_builds"]
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
        # eight racing warmups still build each table exactly once
        stats = seeds.seed_stats()
        assert stats["tables"] == len(seeds.registered_tables())
        assert stats["table_builds"] - builds == stats["tables"]

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
            seeds.store_artifact("host-ocaml", "f" * 64, payload)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seeds.load_artifact("host-ocaml", "f" * 64) == payload
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

    def test_check_output_is_the_same_in_every_seed_artifact_mode(self, tmp_path):
        # Figure 9's apm-1.00, one fresh `check` per mode; only the wall
        # time may differ, `unification_steps` included
        from repro.bench.specs import spec_by_name
        from repro.bench.synth import synthesize

        row = synthesize(spec_by_name("apm-1.00"))
        (tmp_path / "lib.ml").write_text(row.ocaml_source)
        (tmp_path / "stubs.c").write_text(row.c_source)
        argv = ["check", "lib.ml", "stubs.c", "--format", "json"]

        def check(seed_dir: Path, artifacts: str = "1") -> dict:
            out = _cli(argv, tmp_path, seed_dir, artifacts=artifacts)
            document = json.loads(out)
            document.pop("elapsed_seconds")
            return document

        off = check(tmp_path / "off", artifacts="0")
        cold = check(tmp_path / "shared")
        warm_host = check(tmp_path / "shared")
        _cli(["warmup", "."], tmp_path, tmp_path / "warmed")
        warmed = check(tmp_path / "warmed")
        assert off["unification_steps"] > 0
        assert cold == off
        assert warm_host == off
        assert warmed == off


class TestWarmupAndPrune:
    def test_warmup_static_builds_and_stores_every_table(self):
        result = seeds.warmup_static()
        assert result == {"tables": len(seeds.registered_tables())}

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
        assert payload["static"] == {"tables": len(seeds.registered_tables())}
        assert payload["hosts"]["hosts"] == 1
        # the host interface is the only artifact kind written
        kinds = {path.name.split("-")[1] for path in seeds.seed_dir().glob("*.seed")}
        assert kinds == {"host"}


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
