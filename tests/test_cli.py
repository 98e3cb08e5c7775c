"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture()
def project_files(tmp_path):
    ml = tmp_path / "lib.ml"
    ml.write_text(
        'type t = A of int | B\nexternal get : t -> int = "ml_get"\n'
    )
    c = tmp_path / "stubs.c"
    c.write_text(
        """
value ml_get(value x)
{
    if (Is_long(x)) return Val_int(0);
    return Field(x, 0);
}
"""
    )
    return ml, c


class TestCheck:
    def test_clean_project_exit_zero(self, project_files, capsys):
        ml, c = project_files
        code = main(["check", str(ml), str(c)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_buggy_project_exit_counts_errors(self, tmp_path, capsys):
        ml = tmp_path / "lib.ml"
        ml.write_text('external f : int -> int = "ml_f"\n')
        c = tmp_path / "stubs.c"
        c.write_text("value ml_f(value x) { return Val_int(x); }\n")
        code = main(["check", str(ml), str(c)])
        assert code == 1
        out = capsys.readouterr().out
        assert "Val_int" in out

    def test_quiet_mode(self, project_files, capsys):
        ml, c = project_files
        main(["check", "--quiet", str(ml), str(c)])
        out = capsys.readouterr().out.strip()
        assert out.startswith("--")
        assert len(out.splitlines()) == 1

    def test_missing_file(self, capsys):
        code = main(["check", "/nonexistent/file.c"])
        assert code == 125
        assert "no such file" in capsys.readouterr().err

    def test_unknown_extension(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("hello")
        code = main(["check", str(path)])
        assert code == 125

    def test_ablation_flags(self, tmp_path, capsys):
        ml = tmp_path / "lib.ml"
        ml.write_text(
            'external f : string -> string ref = "ml_f"\n'
        )
        c = tmp_path / "stubs.c"
        c.write_text(
            """
value ml_f(value s)
{
    value r = caml_alloc(1, 0);
    Store_field(r, 0, s);
    return r;
}
"""
        )
        assert main(["check", str(ml), str(c)]) == 1
        assert main(["check", "--no-gc-effects", str(ml), str(c)]) == 0


EXAMPLES_PYEXT = Path(__file__).resolve().parent.parent / "examples" / "pyext"


class TestProfileFlag:
    """``--profile [PATH]`` wraps the analysis in cProfile (PR 5): perf
    work starts from a profile, not guesswork."""

    def test_check_profile_to_stderr(self, project_files, capsys):
        ml, c = project_files
        code = main(["check", str(ml), str(c), "--profile"])
        assert code == 0
        captured = capsys.readouterr()
        assert "cumulative" in captured.err
        assert "function calls" in captured.err
        # stdout stays the ordinary report
        assert "0 error(s)" in captured.out

    def test_check_profile_to_path(self, project_files, tmp_path, capsys):
        ml, c = project_files
        out_path = tmp_path / "run.pstats"
        code = main(["check", str(ml), str(c), "--profile", str(out_path)])
        assert code == 0
        stats = out_path.read_text()
        assert "cumulative" in stats
        capsys.readouterr()

    def test_check_profile_keeps_json_parseable(self, project_files, capsys):
        ml, c = project_files
        code = main(
            ["check", str(ml), str(c), "--format", "json", "--profile"]
        )
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # profile output must not pollute stdout

    def test_batch_profile_to_path(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "lib.ml").write_text(
            'external f : int -> int = "ml_f"\n'
        )
        (tree / "stubs.c").write_text(
            "value ml_f(value x) { return Val_int(Int_val(x)); }\n"
        )
        out_path = tmp_path / "batch.pstats"
        code = main(
            [
                "batch",
                str(tree),
                "--no-cache",
                "--profile",
                str(out_path),
            ]
        )
        assert code == 0
        assert "cumulative" in out_path.read_text()
        capsys.readouterr()


class TestDialectFlag:
    def test_pyext_clean_module_exits_zero(self, capsys):
        code = main(
            [
                "check",
                "--dialect",
                "pyext",
                str(EXAMPLES_PYEXT / "clean_module.c"),
            ]
        )
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_pyext_bad_stubs_reports_seeded_defects(self, capsys):
        code = main(
            ["check", "--dialect", "pyext", str(EXAMPLES_PYEXT / "bad_stubs.c")]
        )
        out = capsys.readouterr().out
        assert code == 4
        assert "PyArg_ParseTuple" in out  # format/arity mismatch
        assert "Py_DECREF is missing" in out  # reference leak
        assert "after Py_DECREF" in out  # use-after-decref

    def test_ml_file_rejected_under_pyext(self, tmp_path, capsys):
        ml = tmp_path / "lib.ml"
        ml.write_text("type t = A\n")
        code = main(["check", "--dialect", "pyext", str(ml)])
        assert code == 125
        assert "dialect pyext" in capsys.readouterr().err

    def test_default_dialect_is_ocaml(self, project_files, capsys):
        ml, c = project_files
        assert main(["check", str(ml), str(c)]) == 0

    def test_batch_dialect_flag(self, tmp_path, capsys):
        code = main(
            [
                "batch",
                "--dialect",
                "pyext",
                str(EXAMPLES_PYEXT),
                "--no-cache",
                "--format",
                "json",
            ]
        )
        assert code == 4
        data = json.loads(capsys.readouterr().out)
        errors = {
            Path(u["name"]).name: u["tally"]["errors"] for u in data["units"]
        }
        assert errors == {"bad_stubs.c": 4, "clean_module.c": 0}
        assert all("wall_seconds" in u for u in data["units"])

    def test_dialects_cache_separately(self, tmp_path, capsys):
        # same file through both dialects: four analyses, zero cross-hits
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "unit.c").write_text("int helper(void) { return 0; }\n")
        cache_dir = tmp_path / "cache"
        for dialect in ("ocaml", "pyext"):
            code = main(
                [
                    "batch",
                    "--dialect",
                    dialect,
                    str(tree),
                    "--cache-dir",
                    str(cache_dir),
                    "--format",
                    "json",
                ]
            )
            assert code == 0
            data = json.loads(capsys.readouterr().out)
            assert data["cache"] == {"hits": 0, "misses": 1, "evictions": 0, "coalesced": 0}


@pytest.fixture()
def glue_tree(tmp_path):
    """A tiny directory tree: one clean unit, one with a Val_int misuse."""
    root = tmp_path / "tree"
    (root / "nested").mkdir(parents=True)
    (root / "lib.ml").write_text(
        'type t = A of int | B\n'
        'external get : t -> int = "ml_get"\n'
        'external bad : int -> int = "ml_bad"\n'
    )
    (root / "good.c").write_text(
        "value ml_get(value x)\n"
        "{\n"
        "    if (Is_long(x)) return Val_int(0);\n"
        "    return Field(x, 0);\n"
        "}\n"
    )
    (root / "nested" / "bad.c").write_text(
        "value ml_bad(value x) { return Val_int(x); }\n"
    )
    return root


class TestBatch:
    def test_text_output_and_exit_code(self, glue_tree, tmp_path, capsys):
        code = main(
            ["batch", str(glue_tree), "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 1  # exactly the seeded Val_int error
        out = capsys.readouterr().out
        assert "bad.c" in out
        assert "2 unit(s)" in out
        assert "1 error(s)" in out

    def test_json_output_is_machine_readable(self, glue_tree, tmp_path, capsys):
        code = main(
            [
                "batch",
                str(glue_tree),
                "--format",
                "json",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tally"]["errors"] == 1
        assert len(payload["units"]) == 2
        names = {Path(u["name"]).name for u in payload["units"]}
        assert names == {"good.c", "bad.c"}
        assert payload["cache"] == {"hits": 0, "misses": 2, "evictions": 0, "coalesced": 0}

    def test_second_run_hits_cache(self, glue_tree, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["batch", str(glue_tree), "--cache-dir", cache_dir])
        capsys.readouterr()
        code = main(
            ["batch", str(glue_tree), "--format", "json", "--cache-dir", cache_dir]
        )
        assert code == 1  # cached diagnostics keep their exit semantics
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"hits": 2, "misses": 0, "evictions": 0, "coalesced": 0}

    def test_no_cache_flag(self, glue_tree, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = main(
            ["batch", str(glue_tree), "--no-cache", "--cache-dir", str(cache_dir)]
        )
        assert code == 1
        assert not cache_dir.exists()

    def test_parallel_jobs_flag(self, glue_tree, capsys):
        code = main(["batch", str(glue_tree), "--no-cache", "--jobs", "2"])
        assert code == 1
        assert "1 error(s)" in capsys.readouterr().out

    def test_ablation_flag_changes_cache_key(self, glue_tree, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["batch", str(glue_tree), "--cache-dir", cache_dir])
        capsys.readouterr()
        code = main(
            [
                "batch",
                str(glue_tree),
                "--no-flow-sensitive",
                "--format",
                "json",
                "--cache-dir",
                cache_dir,
            ]
        )
        assert code >= 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["hits"] == 0  # different Options, fresh keys

    def test_missing_directory(self, capsys):
        assert main(["batch", "/nonexistent/dir"]) == 125
        assert "no such directory" in capsys.readouterr().err

    def test_directory_without_units(self, tmp_path, capsys):
        (tmp_path / "readme.txt").write_text("nothing to check")
        assert main(["batch", str(tmp_path)]) == 125
        assert "no .c translation units" in capsys.readouterr().err

    def test_malformed_unit_exits_125(self, glue_tree, capsys):
        (glue_tree / "broken.c").write_text("value f( {\n")
        code = main(["batch", str(glue_tree), "--no-cache"])
        assert code == 125
        assert "engine failure" in capsys.readouterr().out


class TestBatchSubprocess:
    """End-to-end: drive `mlffi-check batch` as a real child process."""

    @staticmethod
    def _invoke(args, cwd):
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        src = str(repo_root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
            timeout=120,
        )

    def test_exit_code_counts_errors(self, glue_tree, tmp_path):
        proc = self._invoke(
            ["batch", str(glue_tree), "--no-cache"], cwd=tmp_path
        )
        assert proc.returncode == 1, proc.stderr
        assert "1 error(s)" in proc.stdout

    def test_json_output_parses_and_matches(self, glue_tree, tmp_path):
        proc = self._invoke(
            [
                "batch",
                str(glue_tree),
                "--jobs",
                "2",
                "--format",
                "json",
                "--cache-dir",
                str(tmp_path / "cache"),
            ],
            cwd=tmp_path,
        )
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["tally"] == {
            "errors": 1,
            "warnings": 0,
            "false_positives": 0,
            "imprecision": 0,
        }
        assert payload["jobs"] == 2
        units = {Path(u["name"]).name: u for u in payload["units"]}
        assert units["bad.c"]["tally"]["errors"] == 1
        assert units["good.c"]["tally"]["errors"] == 0
        (diag,) = units["bad.c"]["diagnostics"]
        assert diag["kind"] == "BAD_VAL_INT"
        assert diag["span"]["filename"].endswith("bad.c")

    def test_missing_directory_exit_125(self, tmp_path):
        proc = self._invoke(["batch", str(tmp_path / "absent")], cwd=tmp_path)
        assert proc.returncode == 125
        assert "no such directory" in proc.stderr


@pytest.fixture()
def warning_tree(tmp_path):
    """A corpus whose only finding is a questionable-practice warning."""
    root = tmp_path / "warn"
    root.mkdir()
    (root / "lib.ml").write_text(
        'external flush : int -> unit -> unit = "ml_flush"\n'
    )
    (root / "stubs.c").write_text(
        "value ml_flush(value fd) { do_flush(Int_val(fd)); return Val_unit; }\n"
    )
    return root


class TestExitCodeContract:
    def test_warnings_only_batch_exits_zero(self, warning_tree, capsys):
        code = main(["batch", str(warning_tree), "--no-cache"])
        assert code == 0
        assert "1 warning(s)" in capsys.readouterr().out

    def test_strict_batch_counts_warnings(self, warning_tree, capsys):
        code = main(["batch", str(warning_tree), "--no-cache", "--strict"])
        assert code == 1

    def test_warnings_only_check_exits_zero(self, warning_tree, capsys):
        files = [str(warning_tree / "lib.ml"), str(warning_tree / "stubs.c")]
        assert main(["check", *files]) == 0
        assert main(["check", "--strict", *files]) == 1

    def test_strict_does_not_change_error_counting(self, glue_tree, capsys):
        code = main(["batch", str(glue_tree), "--no-cache", "--strict"])
        assert code == 1  # 1 error + 0 warnings

    def test_check_json_format(self, warning_tree, capsys):
        files = [str(warning_tree / "lib.ml"), str(warning_tree / "stubs.c")]
        code = main(["check", "--format", "json", *files])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tally"]["warnings"] == 1
        (diag,) = payload["diagnostics"]
        assert diag["kind"] == "TRAILING_UNIT"


class TestCacheMaxEntries:
    def test_eviction_stats_surface_in_json(self, glue_tree, tmp_path, capsys):
        code = main(
            [
                "batch",
                str(glue_tree),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--cache-max-entries",
                "1",
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["evictions"] == 1
        assert len(list((tmp_path / "cache").glob("objects/*/*.json"))) == 1

    def test_zero_disables_the_cap(self, glue_tree, tmp_path, capsys):
        code = main(
            [
                "batch",
                str(glue_tree),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--cache-max-entries",
                "0",
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["evictions"] == 0
        assert len(list((tmp_path / "cache").glob("objects/*/*.json"))) == 2


class TestWatchCommand:
    def test_watch_initial_check_and_bounded_polls(self, glue_tree, capsys):
        code = main(
            [
                "watch",
                str(glue_tree),
                "--no-cache",
                "--interval",
                "0.01",
                "--max-polls",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 unit(s)" in out  # the initial full check printed

    def test_watch_missing_directory(self, capsys):
        assert main(["watch", "/nonexistent/dir"]) == 125
        assert "no such directory" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_missing_directory(self, capsys):
        assert main(["serve", "/nonexistent/dir"]) == 125
        assert "no such directory" in capsys.readouterr().err

    def test_serve_bad_tcp_address(self, glue_tree, capsys):
        code = main(["serve", str(glue_tree), "--no-cache", "--tcp", "nope"])
        assert code == 125
        assert "bad --tcp address" in capsys.readouterr().err


class TestBench:
    def test_single_program(self, capsys):
        code = main(["bench", "--program", "apm-1.00"])
        assert code == 0
        out = capsys.readouterr().out
        assert "apm-1.00" in out
        assert "Total" in out

    def test_unknown_program(self, capsys):
        code = main(["bench", "--program", "no-such-lib"])
        assert code == 125
        assert "unknown benchmark" in capsys.readouterr().err

    def test_compare_flag(self, capsys):
        code = main(["bench", "--program", "ocaml-mad-0.1.0", "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper/ours" in out


class TestExample:
    def test_example_is_clean(self, capsys):
        code = main(["example"])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out


@pytest.fixture()
def link_tree(tmp_path):
    """Per-unit clean corpus with one cross-unit prototype conflict."""
    root = tmp_path / "linked"
    root.mkdir()
    (root / "lib.ml").write_text('external get : int -> int = "ml_get"\n')
    (root / "good.c").write_text(
        "value ml_get(value x) { return Val_int(Int_val(x) + 1); }\n"
    )
    (root / "def.c").write_text(
        "long shared_helper(long a, long b)\n"
        "{\n"
        "    return a + b;\n"
        "}\n"
    )
    (root / "use.c").write_text(
        "long shared_helper(long a);\n"
        "\n"
        "long use_helper(long x)\n"
        "{\n"
        "    return shared_helper(x);\n"
        "}\n"
    )
    return root


class TestLinkCommand:
    def test_conflict_is_exit_code_visible(self, link_tree, capsys):
        code = main(["link", str(link_tree), "--no-cache"])
        assert code == 1
        out = capsys.readouterr().out
        assert "== link" in out
        assert "LINK" not in out  # rendered messages, not kind names
        assert "shared_helper" in out
        assert "conflicting C types" in out

    def test_quiet_prints_only_the_link_report(self, link_tree, capsys):
        code = main(["link", str(link_tree), "--no-cache", "--quiet"])
        assert code == 1
        out = capsys.readouterr().out
        assert "== link" in out
        assert "== " + str(link_tree / "good.c") not in out

    def test_clean_corpus_exits_zero(self, link_tree, capsys):
        (link_tree / "use.c").unlink()
        code = main(["link", str(link_tree), "--no-cache", "--quiet"])
        assert code == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_json_reports_stream_and_link(self, link_tree, capsys):
        code = main(
            ["link", str(link_tree), "--no-cache", "--format", "json"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stream"]["units"] == 3
        assert doc["stream"]["tally"]["errors"] == 0
        (diag,) = doc["link"]["diagnostics"]
        assert diag["kind"] == "LINK_CONFLICTING_DECL"

    def test_json_reports_link_time(self, link_tree, capsys):
        # the linker times itself, so the CLI path reports real link time
        main(["link", str(link_tree), "--no-cache", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["link"]["elapsed_seconds"] > 0

    def test_sarif_carries_the_cross_unit_diagnostics(self, link_tree, capsys):
        code = main(
            ["link", str(link_tree), "--no-cache", "--format", "sarif"]
        )
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        results = log["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["LINK_CONFLICTING_DECL"]

    def test_missing_directory_exits_125(self, tmp_path, capsys):
        code = main(["link", str(tmp_path / "absent"), "--no-cache"])
        assert code == 125

    EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "link"

    def test_seeded_example_corpora(self, capsys):
        for dialect in ("ocaml", "pyext", "jni"):
            code = main(
                [
                    "link",
                    str(self.EXAMPLES / dialect),
                    "--dialect",
                    dialect,
                    "--no-cache",
                    "--quiet",
                ]
            )
            assert code == 2, dialect
            out = capsys.readouterr().out
            assert "2 error(s), 1 warning(s)" in out, dialect

    def test_strict_counts_the_warning(self, capsys):
        code = main(
            [
                "link",
                str(self.EXAMPLES / "ocaml"),
                "--no-cache",
                "--quiet",
                "--strict",
            ]
        )
        assert code == 3


class TestBatchLinkAndStream:
    def test_batch_link_appends_the_link_report(self, link_tree, capsys):
        code = main(["batch", str(link_tree), "--no-cache", "--link"])
        assert code == 1
        out = capsys.readouterr().out
        assert "== link" in out
        assert "conflicting C types" in out

    def test_batch_without_link_stays_silent_about_linking(
        self, link_tree, capsys
    ):
        code = main(["batch", str(link_tree), "--no-cache"])
        assert code == 0
        assert "== link" not in capsys.readouterr().out

    def test_batch_link_json_stanza(self, link_tree, capsys):
        code = main(
            [
                "batch",
                str(link_tree),
                "--no-cache",
                "--link",
                "--format",
                "json",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["link"]["tally"]["errors"] == 1

    def test_batch_link_sarif_merges_unit_and_link_rows(
        self, link_tree, capsys
    ):
        code = main(
            [
                "batch",
                str(link_tree),
                "--no-cache",
                "--link",
                "--format",
                "sarif",
            ]
        )
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        rules = [
            r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]
        ]
        assert "LINK_CONFLICTING_DECL" in rules

    def test_streamed_batch_matches_batch_output(self, link_tree, capsys):
        code = main(["batch", str(link_tree), "--no-cache"])
        plain = capsys.readouterr().out
        stream_code = main(
            ["batch", str(link_tree), "--no-cache", "--stream"]
        )
        streamed = capsys.readouterr().out
        assert stream_code == code == 0
        plain_units = [
            line for line in plain.splitlines() if not line.startswith("--")
        ]
        streamed_units = [
            line
            for line in streamed.splitlines()
            if not line.startswith("--")
        ]
        assert streamed_units == plain_units

    def test_streamed_link_finds_the_conflict(self, link_tree, capsys):
        code = main(
            ["batch", str(link_tree), "--no-cache", "--stream", "--link"]
        )
        assert code == 1
        assert "conflicting C types" in capsys.readouterr().out

    def test_stream_rejects_sarif(self, link_tree, capsys):
        code = main(
            [
                "batch",
                str(link_tree),
                "--no-cache",
                "--stream",
                "--format",
                "sarif",
            ]
        )
        assert code == 125
        assert "sarif" in capsys.readouterr().err

    def test_stream_json_lines_per_unit(self, link_tree, capsys):
        code = main(
            [
                "batch",
                str(link_tree),
                "--no-cache",
                "--stream",
                "--format",
                "json",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # one JSON object per unit, then one trailer object
        parsed = [json.loads(line) for line in lines if line.strip()]
        assert len(parsed) == 4
        assert parsed[-1]["stream"]["units"] == 3


class TestVersion:
    def test_version_prints_the_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"mlffi-check {__version__}"
