"""Cache keying and storage semantics for the batch engine."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.exprs import Options
from repro.engine import (
    CheckRequest,
    CACHE_SCHEMA_VERSION,
    CheckResult,
    NullCache,
    ResultCache,
    run_batch,
    run_request,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def entry_path(root, key):
    """Where the disk tier keeps ``key``: sharded by its first two chars."""
    return root / "objects" / key[:2] / f"{key}.json"


class TestCacheKey:
    def test_identical_input_same_key(self, make_request):
        assert make_request().cache_key() == make_request().cache_key()

    def test_c_source_change_misses(self, make_request, sources):
        assert (
            make_request(c_text=sources["clean"]).cache_key()
            != make_request(c_text=sources["buggy"]).cache_key()
        )

    def test_c_filename_change_misses(self, make_request):
        # spans embed the filename, so renamed files must re-analyze
        assert (
            make_request(name="a.c").cache_key()
            != make_request(name="b.c").cache_key()
        )

    def test_repository_change_misses(self, make_request):
        changed_ml = (
            "type t = A of int | B | C\n"
            'external get : t -> int = "ml_get"\n'
        )
        assert (
            make_request().cache_key()
            != make_request(ml_text=changed_ml).cache_key()
        )

    def test_options_change_misses(self, make_request):
        assert (
            make_request(options=Options()).cache_key()
            != make_request(options=Options(gc_effects=False)).cache_key()
        )

    def test_source_order_changes_key(self):
        # repository building is last-wins on type names, so permuted
        # .ml orders can analyze differently and must not share a key
        from repro.source import SourceFile

        first = SourceFile("a.ml", "type t = X of int")
        second = SourceFile("b.ml", "type t = Y of int")
        one = CheckRequest(
            name="u.c",
            c_sources=(SourceFile("u.c", "int f(void) { return 0; }"),),
            ocaml_sources=(first, second),
        )
        other = CheckRequest(
            name="u.c",
            c_sources=(SourceFile("u.c", "int f(void) { return 0; }"),),
            ocaml_sources=(second, first),
        )
        assert one.cache_key() != other.cache_key()

    def test_units_sharing_repository_get_distinct_keys(
        self, make_request, sources
    ):
        first = make_request(name="x.c", c_text=sources["clean"])
        second = make_request(name="y.c", c_text=sources["buggy"])
        assert first.cache_key() != second.cache_key()

    def test_dialect_change_misses(self):
        # same sources, different boundary dialect ⇒ different analysis
        from dataclasses import replace

        from repro.source import SourceFile

        base = CheckRequest(
            name="u.c",
            c_sources=(SourceFile("u.c", "int f(void) { return 0; }"),),
            dialect="ocaml",
        )
        assert base.cache_key() != replace(base, dialect="pyext").cache_key()


class TestResultCache:
    def test_round_trip(self, tmp_path, buggy_request):
        cache = ResultCache(tmp_path)
        result = run_request(buggy_request)
        assert result.failure is None and len(result.errors) == 1
        cache.store(result.cache_key, result)

        loaded = cache.load(result.cache_key)
        assert loaded is not None
        assert loaded.from_cache is True
        assert loaded.tally() == result.tally()
        assert [d.render() for d in loaded.diagnostics] == [
            d.render() for d in result.diagnostics
        ]
        assert loaded.signatures == result.signatures

    def test_missing_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = entry_path(tmp_path, "f" * 64)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.load("f" * 64) is None

    def test_schema_version_mismatch_is_miss(self, tmp_path, clean_request):
        cache = ResultCache(tmp_path)
        result = run_request(clean_request)
        cache.store(result.cache_key, result)
        path = entry_path(tmp_path, result.cache_key)
        data = json.loads(path.read_text())
        data["schema_version"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        assert cache.load(result.cache_key) is None

    def test_failures_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        failed = CheckResult(name="x.c", cache_key="a" * 64, failure="boom")
        cache.store(failed.cache_key, failed)
        assert cache.load(failed.cache_key) is None

    def test_clear_and_len(self, tmp_path, clean_request):
        cache = ResultCache(tmp_path)
        result = run_request(clean_request)
        cache.store(result.cache_key, result)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_load_marks_the_disk_tier(self, tmp_path, clean_request):
        cache = ResultCache(tmp_path)
        result = run_request(clean_request)
        cache.store(result.cache_key, result)
        assert cache.load(result.cache_key).cache_tier == "disk"

    def test_null_cache_always_misses(self, clean_request):
        cache = NullCache()
        result = run_request(clean_request)
        cache.store(result.cache_key, result)
        assert cache.load(result.cache_key) is None


class TestCacheFailurePaths:
    """Corrupt, truncated, or stale entries must degrade to re-analysis —
    a poisoned cache directory may never crash or poison a batch."""

    def _store_one(self, tmp_path, request):
        cache = ResultCache(tmp_path)
        result = run_request(request)
        cache.store(result.cache_key, result)
        return cache, result, entry_path(tmp_path, result.cache_key)

    def test_truncated_entry_is_miss(self, tmp_path, clean_request):
        cache, result, path = self._store_one(tmp_path, clean_request)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.load(result.cache_key) is None

    def test_empty_entry_is_miss(self, tmp_path, clean_request):
        cache, result, path = self._store_one(tmp_path, clean_request)
        path.write_text("")
        assert cache.load(result.cache_key) is None

    def test_valid_json_wrong_shape_is_miss(self, tmp_path, clean_request):
        cache, result, path = self._store_one(tmp_path, clean_request)
        path.write_text(
            json.dumps({"schema_version": CACHE_SCHEMA_VERSION, "result": 42})
        )
        assert cache.load(result.cache_key) is None

    def test_entry_with_garbled_diagnostic_is_miss(
        self, tmp_path, buggy_request
    ):
        cache, result, path = self._store_one(tmp_path, buggy_request)
        data = json.loads(path.read_text())
        data["result"]["diagnostics"] = [{"kind": "NO_SUCH_KIND"}]
        path.write_text(json.dumps(data))
        assert cache.load(result.cache_key) is None

    def test_missing_schema_version_is_miss(self, tmp_path, clean_request):
        cache, result, path = self._store_one(tmp_path, clean_request)
        data = json.loads(path.read_text())
        del data["schema_version"]
        path.write_text(json.dumps(data))
        assert cache.load(result.cache_key) is None

    def test_batch_reanalyzes_over_corrupt_entries(
        self, tmp_path, make_request, sources
    ):
        requests = [
            make_request(name="clean.c"),
            make_request(name="buggy.c", c_text=sources["buggy"]),
        ]
        cache = ResultCache(tmp_path)
        cold = run_batch(requests, cache=cache)
        for path in tmp_path.glob("objects/*/*.json"):
            path.write_text("{broken")

        rerun = run_batch(requests, cache=cache)
        assert rerun.cache_hits == 0 and rerun.cache_misses == 2
        assert rerun.tally() == cold.tally()
        assert not rerun.failures

    def test_store_into_unusable_directory_degrades(
        self, tmp_path, clean_request
    ):
        # a plain file squats on the cache-directory path: every store and
        # load hits OSError and must degrade to "no cache", never raise
        target = tmp_path / "cache"
        target.write_text("not a directory")
        cache = ResultCache(target)
        result = run_request(clean_request)
        cache.store(result.cache_key, result)  # must not raise
        assert cache.load(result.cache_key) is None


class TestDiskLayout:
    def test_objects_are_sharded_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "c" * 62
        cache.store(key, CheckResult(name="u.c", cache_key=key))
        assert entry_path(tmp_path, key).is_file()
        assert (tmp_path / "index.log").read_text() == key + "\n"

    def test_flat_legacy_entries_are_never_read(self, tmp_path, clean_request):
        # the pre-shard layout kept <key>.json at the top level; keys are
        # unchanged, so only the location keeps such entries invisible
        result = run_request(clean_request)
        payload = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "result": result.to_dict(),
        }
        (tmp_path / f"{result.cache_key}.json").write_text(json.dumps(payload))
        cache = ResultCache(tmp_path)
        assert cache.load(result.cache_key) is None
        assert len(cache) == 0

    def test_scan_ignores_in_flight_temp_files(self, tmp_path):
        """A concurrent writer's ``.tmp-*.json`` spill is invisible to
        counting, eviction, and journal compaction: evicting it
        mid-write would break the writer's ``os.replace``, and its stem
        must never be compacted into ``index.log`` as a key."""
        cache = ResultCache(tmp_path, max_entries=2)
        for index in range(2):
            key = f"{index:02}" + "a" * 62
            cache.store(key, CheckResult(name="u.c", cache_key=key))
        shard = tmp_path / "objects" / "zz"
        shard.mkdir(parents=True)
        temp = shard / ".tmp-abc123.json"
        temp.write_text("{mid-write spill}")
        assert len(cache) == 2
        # push past the cap: the temp file has the oldest mtime, so a
        # dotfile-matching scan would evict it first
        for index in range(2, 5):
            key = f"{index:02}" + "a" * 62
            cache.store(key, CheckResult(name="u.c", cache_key=key))
        assert temp.exists()
        assert ".tmp-abc123" not in (tmp_path / "index.log").read_text()


class TestBatchCaching:
    def test_second_run_is_all_hits_and_identical(
        self, tmp_path, make_request, sources
    ):
        requests = [
            make_request(name="clean.c"),
            make_request(name="buggy.c", c_text=sources["buggy"]),
        ]
        cache = ResultCache(tmp_path)
        cold = run_batch(requests, cache=cache)
        warm = run_batch(requests, cache=cache)

        assert cold.cache_hits == 0 and cold.cache_misses == 2
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert warm.tally() == cold.tally()
        assert [r.name for r in warm.results] == [r.name for r in cold.results]
        assert [
            d.render() for r in warm.results for d in r.diagnostics
        ] == [d.render() for r in cold.results for d in r.diagnostics]

    def test_editing_one_unit_invalidates_only_it(
        self, tmp_path, make_request, sources
    ):
        requests = [
            make_request(name="clean.c"),
            make_request(name="buggy.c", c_text=sources["buggy"]),
        ]
        cache = ResultCache(tmp_path)
        run_batch(requests, cache=cache)

        edited = [
            make_request(name="clean.c"),
            make_request(
                name="buggy.c",
                c_text=sources["buggy"] + "\n/* touched */\n",
            ),
        ]
        rerun = run_batch(edited, cache=cache)
        assert rerun.cache_hits == 1 and rerun.cache_misses == 1
        assert rerun.results[0].from_cache is True
        assert rerun.results[1].from_cache is False


CHILD_SCRIPT = """\
import json, sys
from repro.api import Project
from repro.engine import ResultCache, run_batch

root, cache_dir = sys.argv[1], sys.argv[2]
project = Project.from_directory(root)
report = run_batch(project.to_requests(), jobs=1, cache=ResultCache(cache_dir))
print(json.dumps({
    "hits": report.cache_hits,
    "misses": report.cache_misses,
    "tiers": sorted({r.cache_tier for r in report.results}),
}))
"""


@pytest.fixture()
def glue_tree(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "lib.ml").write_text(
        'type t = A of int | B\nexternal get : t -> int = "ml_get"\n'
    )
    (root / "good.c").write_text(
        "value ml_get(value x)\n"
        "{\n"
        "    if (Is_long(x)) return Val_int(0);\n"
        "    return Field(x, 0);\n"
        "}\n"
    )
    return root


class TestCrossProcess:
    """One cache directory shared by separate processes."""

    def _run_child(self, tree, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_SCRIPT, str(tree), str(cache_dir)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_child_process_sees_parent_writes(self, glue_tree, tmp_path):
        from repro.api import Project

        cache_dir = tmp_path / "cache"
        project = Project.from_directory(glue_tree)
        cold = run_batch(
            project.to_requests(), jobs=1, cache=ResultCache(cache_dir)
        )
        assert cold.cache_misses == 1

        child = self._run_child(glue_tree, cache_dir)
        assert child == {"hits": 1, "misses": 0, "tiers": ["disk"]}

    def test_parent_process_sees_child_writes(self, glue_tree, tmp_path):
        cache_dir = tmp_path / "cache"
        child = self._run_child(glue_tree, cache_dir)
        assert child["misses"] == 1

        from repro.api import Project

        project = Project.from_directory(glue_tree)
        warm = run_batch(
            project.to_requests(), jobs=1, cache=ResultCache(cache_dir)
        )
        assert warm.cache_hits == 1
        assert warm.results[0].cache_tier == "disk"


class TestWiring:
    """--cache-dir (alias --shared-store) and Session(cache_dir=...)."""

    @pytest.fixture()
    def tree(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "unit.c").write_text("int helper(void) { return 0; }\n")
        return root

    def test_batch_cli_flag_round_trips(self, tree, tmp_path, capsys):
        argv = ["batch", str(tree), "--shared-store", str(tmp_path / "cache")]
        assert main(argv + ["--format", "json"]) == 0
        capsys.readouterr()
        assert main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cache"]["hits"] == 1
        assert data["units"][0]["cache_tier"] == "disk"

    def test_cache_dir_and_shared_store_spell_the_same_tier(
        self, glue_tree, tmp_path, capsys
    ):
        outputs = {}
        for flag in ("--cache-dir", "--shared-store"):
            cache_dir = tmp_path / flag.strip("-")
            for run in ("cold", "warm"):
                assert main(["batch", str(glue_tree), flag, str(cache_dir)]) == 0
                # the footer's wall time is the only run-to-run difference
                out = capsys.readouterr().out
                outputs[flag, run] = re.sub(r" in \d+\.\d+s$", "", out, flags=re.M)
            outputs[flag, "tree"] = sorted(
                str(path.relative_to(cache_dir)) for path in cache_dir.rglob("*")
            )
        for part in ("cold", "warm", "tree"):
            assert outputs["--cache-dir", part] == outputs["--shared-store", part]
        assert "index.log" in outputs["--cache-dir", "tree"]

    def test_new_session_hits_the_shared_cache_dir(self, tree, tmp_path):
        from repro.api import Session

        cache_dir = tmp_path / "cache"
        with Session(tree, cache_dir=cache_dir) as warmup:
            warmup.check()
        # a brand-new session (fresh memory tier) hits the disk tier
        with Session(tree, cache_dir=cache_dir) as session:
            report = session.check()
        assert [r.cache_tier for r in report.results] == ["disk"]
