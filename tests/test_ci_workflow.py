"""The CI workflow must stay a syntactically valid Actions definition."""

import re
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
    assert "ruff check src tests benchmarks examples scripts" in runs
    assert "ruff format --check" in runs
    (format_step,) = [
        step["run"]
        for step in workflow["jobs"]["lint"]["steps"]
        if "ruff format --check" in step.get("run", "")
    ]
    # the dialect layer includes what pyext and jni share from cfront
    for path in (
        "src/repro/pyext",
        "src/repro/jni",
        "src/repro/cfront/idioms.py",
        "src/repro/cfront/discipline.py",
    ):
        assert path in format_step.split(), path


def test_bench_smoke_runs_engine_benchmark_and_uploads_artifact(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    # `bench` exits 1 on a Figure 9 mismatch, so the step is a gate
    assert "mlffi-check bench" in runs
    assert "mlffi-check batch examples/glue --jobs 2" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert uploads and "batch-examples.json" in uploads[0]["with"]["path"]


def test_bench_smoke_covers_the_pyext_dialect(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "--dialect pyext" in runs
    # detection is exit-code visible: exactly the seeded defects
    assert 'test "$status" -eq 4' in runs


def test_bench_smoke_covers_the_jni_dialect(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "--dialect jni" in runs
    assert 'test "$status" -eq 8' in runs


def test_bench_smoke_covers_the_rust_dialect(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "--dialect rust" in runs
    # detection is exit-code visible: exactly the six seeded defects
    assert 'test "$status" -eq 6' in runs
    # the rule pack and the conformance report ride the same leg
    assert "mlffi-check rules --dialect rust" in runs
    assert "mlffi-check conformance examples/rust/bad_bindings" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert "rust-conformance.sarif" in uploads[0]["with"]["path"]


def test_bench_smoke_runs_the_repo_benchmark(workflow):
    # the traced run binds dialect internals by name; CI must exercise it
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "python -m pytest -q perfbench/tests" in runs
    assert "perfbench/run.py --workload fig9-oneshot" in runs
    assert "--trace 1" in runs


def test_bench_smoke_traces_the_daemon_path(workflow):
    # the traced daemon replay binds the incremental engine and the
    # service by name; a refactor of that path must fail in CI
    (step,) = [
        step
        for step in workflow["jobs"]["bench-smoke"]["steps"]
        if step.get("name", "").startswith("Repo benchmark traced smoke (daemon")
    ]
    run = " ".join(step["run"].replace("\\", " ").split())
    assert run == (
        "python perfbench/run.py --workload daemon-edit --seed 1 "
        "--seconds 2 --trace 1"
    )


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


def test_bench_smoke_runs_the_cold_benchmark_and_uploads_its_json(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "bench_cold.py --quick" in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert uploads and "cold-report.json" in uploads[0]["with"]["path"]


def test_bench_smoke_uploads_the_startup_import_profile(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    runs = [step.get("run", "") for step in steps]
    assert 'python -X importtime -c "import repro.cli" 2> importtime.txt' in runs
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert "importtime.txt" in uploads[0]["with"]["path"]


def test_bench_smoke_uploads_the_src_line_count(workflow):
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    [step] = [s for s in steps if s.get("name") == "Source line count"]
    assert step["run"] == (
        "find src -name '*.py' | xargs wc -l | tail -n 1 > src-lines.txt"
    )
    uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
    assert "src-lines.txt" in uploads[0]["with"]["path"]


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
    # a second leg at 4000 units, one process, under the same watchdog:
    # per-unit host work that grows with the host would blow it
    (large_leg,) = [
        s["run"]
        for s in job["steps"]
        if "bench_link.py --units 4000" in s.get("run", "")
    ]
    assert (
        "timeout 900 python benchmarks/bench_link.py --units 4000 --jobs 1"
        in large_leg
    )
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


#: the named steps of every job, in order
STEPS = {
    "lint": ["Install ruff", "Ruff check", "Ruff format check (dialect layer)"],
    "test": ["Install package", "Run test suite"],
    "bench-smoke": [
        "Install package",
        "Start-up import profile",
        "Source line count",
        "Figure 9 table",
        "Repo benchmark unit tests",
        "Repo benchmark traced smoke (fig9-oneshot, every layer)",
        "Repo benchmark traced smoke (daemon-edit, every layer)",
        "pyext dialect smoke (example exit codes)",
        "jni dialect smoke (example exit codes)",
        "rust dialect smoke (example exit codes + conformance)",
        "Batch CLI smoke over examples/glue",
        "SARIF output smoke (merged batch log)",
        "Cold-path smoke (telemetry-off, seed-artifact, pool + golden gates)",
        "Concurrency benchmark report (for the artifact bundle)",
        "Upload bench reports and SARIF (canonical py3.12 leg)",
    ],
    "telemetry-smoke": [
        "Install package",
        "Traced batch + link sweep over the seeded jni corpus",
        "Validate Chrome trace shape (nested per-unit phase spans)",
        "Validate Prometheus metrics shape (per-tier cache counters)",
        "Telemetry-on benchmark (1.25x + shape gates)",
        "Upload telemetry artifacts",
    ],
    "link-smoke": [
        "Install package",
        "Link benchmark (streamed RSS gate)",
        "Link benchmark (4000 units, host phase once per corpus)",
        "Seeded example corpora exit-code gates",
        "Parallel sweep exit-code gate",
        "Upload link report",
    ],
    "serve-smoke": [
        "Install package",
        "Daemon wire smoke (check both dialects, edit, incremental re-run)",
        "Watch mode smoke (bounded polls)",
    ],
    "concurrency-smoke": [
        "Install package",
        "Concurrency benchmark (all gates)",
        "Async daemon CLI smoke (serve --tcp with backpressure flags)",
    ],
}


def test_every_job_runs_exactly_its_pinned_steps(workflow):
    for name, job in workflow["jobs"].items():
        named = [step["name"] for step in job["steps"] if "name" in step]
        assert named == STEPS[name], name


def test_every_invoked_script_exists(workflow):
    root = WORKFLOW.parent.parent.parent
    runs = " ".join(
        step.get("run", "")
        for job in workflow["jobs"].values()
        for step in job["steps"]
    )
    scripts = set(re.findall(r"(?:benchmarks|perfbench|scripts)/\w+\.py", runs))
    assert scripts
    for script in scripts:
        assert (root / script).is_file(), script


def test_telemetry_smoke_gates_the_enabled_overhead(workflow):
    job = workflow["jobs"]["telemetry-smoke"]
    runs = " ".join(step.get("run", "") for step in job["steps"])
    assert "bench_telemetry.py --quick" in runs
