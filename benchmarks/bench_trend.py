"""Benchmark-trend harness: one comparable number per PR.

Runs the nine engine benchmarks (``bench_batch``, ``bench_pyext``,
``bench_serve``, ``bench_jni``, ``bench_rust``, ``bench_cold``,
``bench_concurrency``, ``bench_link``, ``bench_telemetry``) through
their common ``--json`` flag,
merges the payloads into one schema-versioned trend document, and
compares the speedup/warm-cache *ratios* against the newest committed
``BENCH_*.json`` at the repository root.  Ratios — not wall times — are
what survive hardware changes between CI runs, so they are what the
regression gate watches: the run fails when any tracked ratio regresses
by more than ``--max-regression`` (default 20%) versus the baseline.

CI commits the merged document as ``BENCH_PR<n>.json``, so the repo root
accumulates a per-PR performance trajectory that the next PR's gate
reads.

Run::

    python benchmarks/bench_trend.py --quick --output BENCH_PR8.json
    python benchmarks/bench_trend.py --compare-only BENCH_PR8.json
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCHEMA = "mlffi-bench-trend"
SCHEMA_VERSION = 1
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: benchmark name -> script + extra argv (quick and full variants)
BENCHMARKS: dict[str, dict[str, list[str]]] = {
    "batch": {
        "script": "bench_batch.py",
        "quick": ["--units", "8", "--quick", "--jobs", "2"],
        "full": ["--units", "16", "--jobs", "4"],
    },
    "pyext": {
        "script": "bench_pyext.py",
        "quick": ["--quick"],
        "full": ["--units", "16"],
    },
    "jni": {
        "script": "bench_jni.py",
        "quick": ["--quick"],
        "full": ["--units", "16"],
    },
    "rust": {
        "script": "bench_rust.py",
        "quick": ["--quick"],
        "full": ["--units", "16"],
    },
    "serve": {
        "script": "bench_serve.py",
        "quick": ["--quick"],
        "full": [],
    },
    "cold": {
        "script": "bench_cold.py",
        # quick runs get the same speedup headroom the CI smoke gate
        # uses: the trend sweeps seven other benchmarks back to back, so
        # the frozen-baseline speedup wobbles with runner load in a way
        # the full run (and the standalone gate) does not
        "quick": ["--quick", "--min-speedup", "1.5"],
        "full": [],
    },
    "concurrency": {
        "script": "bench_concurrency.py",
        "quick": ["--quick"],
        "full": [],
    },
    "link": {
        "script": "bench_link.py",
        "quick": ["--quick"],
        "full": ["--units", "10000", "--jobs", "4"],
    },
    "telemetry": {
        "script": "bench_telemetry.py",
        "quick": ["--quick"],
        "full": [],
    },
}

#: ratio key -> direction ("higher" = bigger is better).  The two batch
#: parallelism ratios are hardware-conditional: multi-core hosts record a
#: speedup, single-core hosts record the pool-overhead ratio, never both
#: (PR 5: `parallel_speedup: 1.08` on one core was noise, not a speedup).
RATIO_DIRECTIONS: dict[str, str] = {
    "batch_parallel_speedup": "higher",
    "batch_parallel_overhead": "lower",
    "batch_warm_fraction_of_cold": "lower",
    "pyext_warm_fraction_of_cold": "lower",
    "jni_warm_fraction_of_cold": "lower",
    "rust_warm_fraction_of_cold": "lower",
    "serve_speedup_ocaml": "higher",
    "serve_speedup_pyext": "higher",
    "serve_speedup_jni": "higher",
    "concurrency_warm_checks_per_sec": "higher",
    "concurrency_p99_ms": "lower",
    "concurrency_shed_rate": "higher",
    # cross-unit link recall over the seeded + planted bug corpora; the
    # RSS cap is gated inside bench_link itself (absolute, not a ratio)
    "link_recall": "higher",
    "telemetry_overhead_ratio": "lower",
    # host-interface artifact load vs rebuild (bench_cold's in-process
    # measurement; also gated absolutely there at 2x)
    "cold_seed_artifact_speedup": "higher",
}

#: hardware-conditional ratios: present-or-absent is legitimate, so
#: validation does not require them and the regression gate compares them
#: only when both trajectories carry them
CONDITIONAL_RATIOS: frozenset[str] = frozenset(
    {
        "batch_parallel_speedup",
        "batch_parallel_overhead",
    }
)

#: "lower"-direction ratios that measure a warm path against the cold
#: path: when the *cold* path speeds up (the PR 5 overhaul halved it) the
#: fraction worsens even though nothing regressed, so tiny absolute
#: values are exempt — the gate still fires when a busted cache drags the
#: fraction toward 1.
RATIO_FLOORS: dict[str, float] = {
    "batch_warm_fraction_of_cold": 0.05,
    "pyext_warm_fraction_of_cold": 0.05,
    "jni_warm_fraction_of_cold": 0.05,
    "rust_warm_fraction_of_cold": 0.05,
    # sub-5ms p99 is far below the 50ms gate; scheduler jitter at that
    # scale is noise, not a regression
    "concurrency_p99_ms": 5.0,
    # on single-core hosts the pool-overhead ratio wanders 0.9-1.4 from
    # scheduling jitter alone; only a blow-up (pickling whole trees,
    # pool thrash) should fire the gate
    "batch_parallel_overhead": 1.5,
    # telemetry-on overhead on a sub-50ms sweep jitters a few percent
    # run to run; bench_telemetry's own 1.25x absolute gate catches a
    # real blow-up, the trend gate only needs to see drift above noise
    "telemetry_overhead_ratio": 1.15,
}


def run_benchmarks(quick: bool) -> tuple[dict[str, dict], list[str]]:
    """Run every benchmark; returns (payloads, gate failures)."""
    payloads: dict[str, dict] = {}
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in BENCHMARKS.items():
            out = Path(tmp) / f"{name}.json"
            argv = [
                sys.executable,
                str(BENCH_DIR / spec["script"]),
                "--json",
                str(out),
            ] + spec["quick" if quick else "full"]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if not out.is_file():
                failures.append(
                    f"{name}: no JSON produced (exit {proc.returncode}): "
                    f"{proc.stderr.strip()[-200:]}"
                )
                continue
            payloads[name] = json.loads(out.read_text())
            if proc.returncode != 0:
                failures.append(
                    f"{name}: benchmark gates failed (exit {proc.returncode})"
                )
    return payloads, failures


def extract_ratios(payloads: dict[str, dict]) -> dict[str, float]:
    """The comparable numbers, pulled out of each benchmark's payload."""
    ratios: dict[str, float] = {}
    batch = payloads.get("batch")
    if batch is not None:
        if batch.get("parallel_speedup") is not None:
            ratios["batch_parallel_speedup"] = batch["parallel_speedup"]
        if batch.get("parallel_overhead_ratio") is not None:
            ratios["batch_parallel_overhead"] = batch["parallel_overhead_ratio"]
        ratios["batch_warm_fraction_of_cold"] = batch["warm_fraction_of_cold"]
    for name in ("pyext", "jni", "rust"):
        payload = payloads.get(name)
        if payload is not None:
            ratios[f"{name}_warm_fraction_of_cold"] = payload[
                "warm_fraction_of_cold"
            ]
    serve = payloads.get("serve")
    if serve is not None:
        for dialect, result in serve["dialects"].items():
            ratios[f"serve_speedup_{dialect}"] = result["speedup"]
    concurrency = payloads.get("concurrency")
    if concurrency is not None:
        ratios["concurrency_warm_checks_per_sec"] = concurrency[
            "warm_checks_per_sec"
        ]
        ratios["concurrency_p99_ms"] = concurrency["p99_ms"]
        ratios["concurrency_shed_rate"] = concurrency["shed_rate"]
    link = payloads.get("link")
    if link is not None:
        ratios["link_recall"] = link["link_recall"]
    telemetry = payloads.get("telemetry")
    if telemetry is not None:
        ratios["telemetry_overhead_ratio"] = telemetry["overhead_ratio"]
    cold = payloads.get("cold")
    if cold is not None:
        # recorded for the trajectory but not regression-gated: the cold
        # baseline is frozen on one machine, so cross-host comparisons of
        # this ratio say more about the runner than the code
        for dialect, result in cold["dialects"].items():
            speedup = result.get("speedup_vs_baseline")
            if speedup is not None:
                ratios[f"cold_speedup_vs_baseline_{dialect}"] = speedup
        if cold.get("seed_artifact_speedup") is not None:
            ratios["cold_seed_artifact_speedup"] = cold[
                "seed_artifact_speedup"
            ]
    return ratios


def merge(
    payloads: dict[str, dict],
    failures: list[str],
    *,
    pr: str,
    quick: bool,
    baseline: str | None,
    regressions: list[str],
) -> dict:
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "pr": pr,
        "quick": quick,
        "generated_unix": int(time.time()),
        "benchmarks": payloads,
        "ratios": extract_ratios(payloads),
        "gates": {
            "bench_failures": failures,
            "baseline": baseline,
            "regressions": regressions,
        },
    }


def validate(document: dict) -> list[str]:
    """Schema check for a trend document; empty list = valid."""
    problems: list[str] = []
    if document.get("schema") != SCHEMA:
        problems.append(f"schema is {document.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(document.get("schema_version"), int):
        problems.append("schema_version must be an int")
    if not isinstance(document.get("pr"), str):
        problems.append("pr must be a string")
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, dict) or not (
        set(BENCHMARKS) <= set(benchmarks)
    ):
        problems.append(f"benchmarks must cover {sorted(BENCHMARKS)}")
    ratios = document.get("ratios")
    if not isinstance(ratios, dict):
        problems.append("ratios must be a mapping")
    else:
        for key in RATIO_DIRECTIONS:
            value = ratios.get(key)
            if value is None and key in CONDITIONAL_RATIOS:
                continue  # hardware-conditional: absent is legitimate
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"ratio {key} missing or non-positive")
    gates = document.get("gates")
    if not isinstance(gates, dict) or "bench_failures" not in gates:
        problems.append("gates.bench_failures missing")
    return problems


# -- the trajectory ------------------------------------------------------------

_PR_RE = re.compile(r"BENCH_PR(\d+)\.json$")


def find_baseline(directory: Path, exclude: Path | None) -> Path | None:
    """Newest committed ``BENCH_*.json``: highest PR number, then mtime."""
    candidates = []
    for path in directory.glob("BENCH_*.json"):
        if exclude is not None and path.resolve() == exclude.resolve():
            continue
        match = _PR_RE.search(path.name)
        number = int(match.group(1)) if match else -1
        candidates.append((number, path.stat().st_mtime, path))
    if not candidates:
        return None
    return max(candidates)[2]


def compare_ratios(
    current: dict[str, float],
    baseline: dict[str, float],
    max_regression: float,
) -> list[str]:
    """Ratios that regressed beyond tolerance versus the baseline."""
    regressions: list[str] = []
    for key, direction in RATIO_DIRECTIONS.items():
        new = current.get(key)
        old = baseline.get(key)
        if not isinstance(new, (int, float)) or not isinstance(
            old, (int, float)
        ):
            continue  # a ratio the older trajectory did not track yet
        if old <= 0:
            continue
        floor = RATIO_FLOORS.get(key)
        if floor is not None and direction == "lower" and new <= floor:
            # still far below the meaningful threshold; a faster cold
            # path inflates this fraction without any real regression
            continue
        if direction == "higher" and new < old * (1.0 - max_regression):
            regressions.append(
                f"{key}: {new:.3g} vs baseline {old:.3g} "
                f"(> {max_regression:.0%} slower)"
            )
        elif direction == "lower" and new > old * (1.0 + max_regression):
            regressions.append(
                f"{key}: {new:.3g} vs baseline {old:.3g} "
                f"(> {max_regression:.0%} worse)"
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(ROOT / "BENCH_PR8.json"),
        metavar="PATH",
        help="merged trend document to write (default: BENCH_PR8.json)",
    )
    parser.add_argument(
        "--pr",
        default=None,
        help="PR label recorded in the document (default: from the "
        "output filename)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized benchmark runs"
    )
    parser.add_argument(
        "--baseline-dir",
        default=str(ROOT),
        metavar="DIR",
        help="where committed BENCH_*.json trajectory files live",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="tolerated relative ratio regression (default: 0.20)",
    )
    parser.add_argument(
        "--compare-only",
        metavar="PATH",
        default=None,
        help="skip running benchmarks; validate PATH and gate it against "
        "the baseline",
    )
    args = parser.parse_args(argv)

    output = Path(args.output)
    pr = args.pr
    if pr is None:
        match = _PR_RE.search(output.name)
        pr = f"PR{match.group(1)}" if match else output.stem

    if args.compare_only is not None:
        document = json.loads(Path(args.compare_only).read_text())
        problems = validate(document)
        baseline_path = find_baseline(
            Path(args.baseline_dir), Path(args.compare_only)
        )
        regressions: list[str] = []
        if baseline_path is not None:
            baseline = json.loads(baseline_path.read_text())
            regressions = compare_ratios(
                document.get("ratios", {}),
                baseline.get("ratios", {}),
                args.max_regression,
            )
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        for regression in regressions:
            print(f"regression: {regression}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "baseline": str(baseline_path) if baseline_path else None,
                    "schema_problems": problems,
                    "regressions": regressions,
                },
                indent=2,
            )
        )
        return 1 if problems or regressions else 0

    payloads, failures = run_benchmarks(args.quick)

    baseline_path = find_baseline(Path(args.baseline_dir), output)
    baseline_name = baseline_path.name if baseline_path else None
    regressions = []
    if baseline_path is not None:
        baseline = json.loads(baseline_path.read_text())
        regressions = compare_ratios(
            extract_ratios(payloads),
            baseline.get("ratios", {}),
            args.max_regression,
        )

    document = merge(
        payloads,
        failures,
        pr=pr,
        quick=args.quick,
        baseline=baseline_name,
        regressions=regressions,
    )
    problems = validate(document)
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    print(json.dumps(document["ratios"], indent=2, sort_keys=True))
    for failure in failures:
        print(f"bench failure: {failure}", file=sys.stderr)
    for problem in problems:
        print(f"schema: {problem}", file=sys.stderr)
    for regression in regressions:
        print(f"regression: {regression}", file=sys.stderr)
    return 1 if failures or problems or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
