"""The CI workflow must stay a syntactically valid Actions definition."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = (
    Path(__file__).resolve().parent.parent
    / ".github"
    / "workflows"
    / "ci.yml"
)


@pytest.fixture(scope="module")
def workflow():
    assert WORKFLOW.is_file(), WORKFLOW
    return yaml.safe_load(WORKFLOW.read_text())


def test_triggers_on_push_and_pr(workflow):
    # PyYAML parses the bare `on:` key as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert "push" in triggers
    assert "pull_request" in triggers


def test_jobs_cover_lint_tests_and_bench(workflow):
    assert set(workflow["jobs"]) == {
        "lint",
        "test",
        "bench-smoke",
        "bench-trend",
        "serve-smoke",
        "concurrency-smoke",
        "link-smoke",
        "telemetry-smoke",
    }


def test_serve_smoke_drives_the_daemon(workflow):
    steps = workflow["jobs"]["serve-smoke"]["steps"]
    commands = " ".join(step.get("run", "") for step in steps)
    assert "serve_smoke.py" in commands
    assert "watch" in commands


def test_bench_smoke_gates_the_serve_benchmark(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    commands = " ".join(step.get("run", "") for step in steps)
    assert "bench_serve.py" in commands
    assert "sarif" in commands


def test_every_step_is_well_formed(workflow):
    for name, job in workflow["jobs"].items():
        assert "runs-on" in job, name
        assert job["steps"], name
        for step in job["steps"]:
            assert "uses" in step or "run" in step, (name, step)


def test_python_matrix_spans_310_to_313(workflow):
    matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.11", "3.12", "3.13"]


def test_lint_job_includes_format_check(workflow):
    runs = " ".join(
        step.get("run", "") for step in workflow["jobs"]["lint"]["steps"]
    )
    assert "ruff check" in runs
    assert "ruff format --check" in runs


def test_bench_smoke_runs_engine_benchmark_and_uploads_artifact(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "mlffi-check bench" in runs
    assert "bench_batch.py --units 8 --quick" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert uploads and "batch-report.json" in uploads[0]["with"]["path"]


def test_bench_smoke_covers_the_pyext_dialect(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "bench_pyext.py" in runs
    assert "--dialect pyext" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert "pyext-report.json" in uploads[0]["with"]["path"]


def test_bench_smoke_covers_the_jni_dialect(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "bench_jni.py" in runs
    assert "--dialect jni" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert "jni-report.json" in uploads[0]["with"]["path"]


def test_bench_smoke_covers_the_rust_dialect(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "bench_rust.py" in runs
    assert "--dialect rust" in runs
    # detection is exit-code visible: exactly the six seeded defects
    assert 'test "$status" -eq 6' in runs
    # the rule pack and the conformance report ride the same leg
    assert "mlffi-check rules --dialect rust" in runs
    assert "mlffi-check conformance examples/rust/bad_bindings" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    path = uploads[0]["with"]["path"]
    assert "rust-report.json" in path
    assert "rust-conformance.sarif" in path


def test_bench_smoke_runs_the_repo_benchmark(workflow):
    # the traced run binds dialect internals by name; CI must exercise it
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "python -m pytest -q perfbench/tests" in runs
    assert "perfbench/run.py --workload fig9-oneshot" in runs
    assert "--trace 1" in runs


def test_concurrency_cancels_superseded_runs(workflow):
    concurrency = workflow["concurrency"]
    assert concurrency["cancel-in-progress"] is True
    assert "group" in concurrency


def test_every_setup_python_step_caches_pip_on_pyproject(workflow):
    for name, job in workflow["jobs"].items():
        for step in job["steps"]:
            if "setup-python" not in step.get("uses", ""):
                continue
            with_ = step["with"]
            assert with_.get("cache") == "pip", (name, step)
            assert with_.get("cache-dependency-path") == "pyproject.toml", name


def test_bench_trend_merges_and_gates_the_trajectory(workflow):
    steps = workflow["jobs"]["bench-trend"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "bench_trend.py" in runs
    assert "BENCH_PR10.json" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert uploads and "BENCH_PR10.json" in uploads[0]["with"]["path"]


def test_bench_smoke_runs_the_cold_benchmark_and_uploads_its_json(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "bench_cold.py --quick" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert uploads and "cold-report.json" in uploads[0]["with"]["path"]


def test_bench_trend_stages_the_committed_baseline(workflow):
    # the regression gate must compare against the committed trajectory
    # even when the output filename matches the newest BENCH_*.json
    steps = workflow["jobs"]["bench-trend"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert ".bench-baseline" in runs
    assert "--baseline-dir" in runs


def test_artifacts_upload_only_from_canonical_py312_jobs(workflow):
    # bench JSON + SARIF artifacts come from single-leg py3.12 jobs; the
    # version matrix legs upload nothing
    for name, job in workflow["jobs"].items():
        uploads = [
            s for s in job["steps"] if "upload-artifact" in s.get("uses", "")
        ]
        if "strategy" in job:
            assert not uploads, f"matrix job {name} must not upload artifacts"
        for step in uploads:
            versions = [
                s["with"]["python-version"]
                for s in job["steps"]
                if "setup-python" in s.get("uses", "")
            ]
            assert versions == ["3.12"], name


def test_sarif_artifact_rides_the_bench_smoke_leg(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert "glue.sarif" in uploads[0]["with"]["path"]


def test_concurrency_smoke_runs_the_gated_benchmark(workflow):
    job = workflow["jobs"]["concurrency-smoke"]
    assert job["needs"] == ["test"]
    runs = " ".join(step.get("run", "") for step in job["steps"])
    assert "bench_concurrency.py --quick" in runs
    # the smoke also drives the CLI-level async daemon once
    assert "mlffi-check" in runs and "serve" in runs


def test_bench_smoke_bundles_the_concurrency_report(workflow):
    # artifact@v4 forbids two jobs writing one artifact name, so the
    # report copy for the bundle is produced here, not in
    # concurrency-smoke
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "bench_concurrency.py" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert "concurrency-report.json" in uploads[0]["with"]["path"]


def test_link_smoke_gates_recall_rss_and_exit_codes(workflow):
    job = workflow["jobs"]["link-smoke"]
    assert job["needs"] == ["test"]
    runs = " ".join(step.get("run", "") for step in job["steps"])
    assert "bench_link.py --quick" in runs
    # every seeded corpus must be exit-code visible for all four dialects
    assert "mlffi-check link" in runs
    assert "--strict" in runs
    for dialect in ("ocaml", "pyext", "jni", "rust"):
        assert dialect in runs
    # the worker pool is exercised, gated on the same link exit code
    (pool_leg,) = [
        s["run"]
        for s in job["steps"]
        if "--jobs 2" in s.get("run", "")
    ]
    assert (
        "mlffi-check link examples/link/ocaml --no-cache --quiet --jobs 2"
        in pool_leg
    )
    assert 'test "$status" -eq 2' in pool_leg
    uploads = [
        s for s in job["steps"] if "upload-artifact" in s.get("uses", "")
    ]
    assert uploads and "link-report.json" in uploads[0]["with"]["path"]


def test_telemetry_smoke_validates_trace_and_metrics_artifacts(workflow):
    job = workflow["jobs"]["telemetry-smoke"]
    assert job["needs"] == ["test"]
    runs = " ".join(step.get("run", "") for step in job["steps"])
    # the traced sweep keeps the seeded corpus' exit code (2 link errors)
    assert "--trace-out trace.json" in runs
    assert "--metrics-out metrics.prom" in runs
    assert 'test "$status" -eq 2' in runs
    # shape gates: Perfetto nesting and the Prometheus sample grammar
    assert "traceEvents" in runs
    assert "mlffi_unit_seconds" in runs
    assert "mlffi_cache_probes_total" in runs
    uploads = [
        s for s in job["steps"] if "upload-artifact" in s.get("uses", "")
    ]
    assert uploads, "telemetry artifacts must be uploaded"
    path = uploads[0]["with"]["path"]
    assert "trace.json" in path and "metrics.prom" in path


def test_every_job_has_a_hang_watchdog_timeout(workflow):
    # a wedged daemon or benchmark must fail the job, not eat the
    # runner's 6-hour default
    for name, job in workflow["jobs"].items():
        assert isinstance(job.get("timeout-minutes"), int), name
        assert job["timeout-minutes"] <= 30, name
