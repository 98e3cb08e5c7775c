"""Cold-path benchmark: per-unit throughput on scaled example corpora.

Every benchmark so far showed the *cold* analysis path (lex -> parse ->
lower -> infer, no cache, no resident state) dominating batch onboarding;
this harness is the instrument that can actually see it.  For each
boundary dialect it scales the repository's own example corpus to N
translation units (textual symbol renaming keeps every unit distinct, so
no content-addressed layer can collapse the work) and times one
sequential cold sweep with caching disabled.

Two gates, both against *frozen* artifacts committed in this repo:

* **throughput** — cold per-unit time must beat the pre-optimization
  baseline (``benchmarks/baselines/bench_cold_baseline.json``, recorded
  at the commit before the PR 5 overhaul) by ``--min-speedup`` (default
  2.0) on every dialect;
* **equivalence** — diagnostics over the three real example corpora
  (``examples/glue``, ``examples/pyext``, ``examples/jni``) must be
  byte-identical to the golden dumps under ``benchmarks/goldens/``.
  The equivalence gate is what makes aggressive cold-path refactors safe.

Run::

    python benchmarks/bench_cold.py --units 100
    python benchmarks/bench_cold.py --quick
    python benchmarks/bench_cold.py --record-baseline --update-goldens
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro import seeds
from repro.api import Project
from repro.boundary import get_dialect
from repro.engine import CheckRequest, run_batch
from repro.source import SourceFile
from repro.telemetry import set_hooks_enabled

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "bench_cold_baseline.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

BASELINE_SCHEMA = "mlffi-bench-cold-baseline"

#: dialect -> example corpus directory
CORPORA: dict[str, Path] = {
    "ocaml": EXAMPLES / "glue",
    "pyext": EXAMPLES / "pyext",
    "jni": EXAMPLES / "jni",
}

#: dialect -> (source file names, identifier roots to uniquify per unit).
#: Renaming the root in every file of a pair keeps host and C sides
#: consistent (the OCaml ``external ... = "ml_counter_make"`` string and
#: the C definition rename together).
_SCALE_SPECS: dict[str, list[tuple[tuple[str, ...], tuple[str, ...]]]] = {
    "ocaml": [
        (("counter.ml", "counter_stubs.c"), ("counter",)),
        (("shapes.ml", "shapes_stubs.c"), ("shape",)),
    ],
    "pyext": [
        (("clean_module.c",), ("spam", "Spam")),
    ],
    "jni": [
        (("clean_native.c",), ("_Native_",)),
    ],
}


def _rename(text: str, roots: tuple[str, ...], index: int) -> str:
    for root in roots:
        if root.startswith("_") and root.endswith("_"):
            text = text.replace(root, f"_Native{index:03d}_")
        else:
            text = text.replace(root, f"{root}{index:03d}")
    return text


def build_corpus(dialect: str, units: int) -> list[CheckRequest]:
    """Scale the dialect's example corpus to ``units`` distinct units."""
    specs = _SCALE_SPECS[dialect]
    loaded = [
        [
            (name, (CORPORA[dialect] / name).read_text())
            for name in names
        ]
        for names, _roots in specs
    ]
    requests: list[CheckRequest] = []
    for index in range(units):
        spec_index = index % len(specs)
        _names, roots = specs[spec_index]
        c_sources: list[SourceFile] = []
        host_sources: list[SourceFile] = []
        for name, text in loaded[spec_index]:
            renamed = _rename(text, roots, index)
            out_name = f"u{index:03d}_{name}"
            if name.endswith(".c"):
                c_sources.append(SourceFile(out_name, renamed))
            else:
                host_sources.append(SourceFile(out_name, renamed))
        requests.append(
            CheckRequest(
                name=f"u{index:03d}.c",
                c_sources=tuple(c_sources),
                ocaml_sources=tuple(host_sources),
                dialect=dialect,
            )
        )
    return requests


def _calibration_run() -> None:
    """A fixed, interpreter-bound reference workload (dict/str/int churn,
    like the analysis itself).  Its wall time tracks how fast this host
    is executing Python *right now*."""
    total = 0
    table: dict[int, int] = {}
    s = "abcdefgh" * 8
    for i in range(200_000):
        table[i & 1023] = i
        total += table[i & 1023] ^ (i * 7)
    parts = []
    for i in range(20_000):
        parts.append(s[i & 63 : (i & 63) + 8])
    if total < 0 or not parts:  # keep the work observable
        raise AssertionError


def measure_calibration() -> float:
    """Best-of-3 seconds for the reference workload."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _calibration_run()
        best = min(best, time.perf_counter() - started)
    return best


def time_cold(requests: list[CheckRequest], repeats: int) -> float:
    """Best-of-``repeats`` sequential cold wall time, caching disabled.

    A tiny untimed sweep first absorbs one-time process costs (module
    imports, memoized seed tables) so small corpora measure steady-state
    per-unit throughput rather than interpreter warmup.
    """
    run_batch(requests[:3], jobs=1, cache=None)
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        report = run_batch(requests, jobs=1, cache=None)
        elapsed = time.perf_counter() - started
        failures = [r.name for r in report.results if r.failure is not None]
        if failures:
            raise RuntimeError(f"cold sweep had engine failures: {failures}")
        best = min(best, elapsed)
    return best


def measure_telemetry_off_overhead(units: int, repeats: int) -> float:
    """What the *disabled* telemetry hooks cost, as a cold-time ratio.

    The instrumentation sites in the analysis call
    :func:`repro.telemetry.span` and the gated metrics helpers
    unconditionally; with no tracer installed and metrics off they must
    be free.  This times the same cold sweep in the normal disabled
    state and with :func:`set_hooks_enabled` bypassing the hooks
    entirely, and returns ``normal / bypassed - 1`` — the residue the
    ``--max-telemetry-overhead`` gate bounds below 2%.

    The gate is one-sided — only a *positive* residue fails it — and a
    real hook cost would show up in every measurement, while runner load
    spikes inflate only some of them.  So the estimate is the minimum
    over a few independent blocks, each an interleaved best-of sweep
    with the mode order alternating per pair to cancel drift.
    """
    requests = build_corpus("ocaml", units)
    run_batch(requests[:3], jobs=1, cache=None)  # absorb warmup once

    def sweep() -> float:
        started = time.perf_counter()
        run_batch(requests, jobs=1, cache=None)
        return time.perf_counter() - started

    def block(pairs: int) -> float:
        normal = bypassed = float("inf")
        for index in range(pairs):
            order = (True, False) if index % 2 == 0 else (False, True)
            for hooks in order:
                set_hooks_enabled(hooks)
                if hooks:
                    normal = min(normal, sweep())
                else:
                    bypassed = min(bypassed, sweep())
        return normal / max(bypassed, 1e-9) - 1.0

    try:
        return min(block(max(4, repeats)) for _ in range(3))
    finally:
        set_hooks_enabled(True)


def measure_seed_artifact_speedup(units: int, repeats: int) -> dict:
    """Host-interface artifact load vs rebuild, same process, same inputs.

    The artifact tier exists for the worker-spawn path: a fresh process
    meets host fingerprints its siblings already parsed.  This reproduces
    that situation in-process — build every host repository once
    (write-through populates the artifacts), then alternate two measured
    legs with the in-process memos cleared before each: one loading the
    pickled repositories, one with the artifact tier disabled so every
    fingerprint re-parses.  Best-of-``repeats`` per leg; the ratio is the
    ``seed_artifact_speedup`` trend field and the ``--min-seed-artifact-
    speedup`` gate (a regression here means pickling the repository
    stopped being cheaper than re-deriving it, i.e. the tier is dead
    weight).

    The hosts are sized like the workload the memo actually serves: a
    batch's units share one *project-wide* OCaml side (every ``.ml`` in
    the tree feeds the repository — see ``OCamlDialect.repository_for``),
    so each measured fingerprint carries a multi-module host, not one
    4-external toy file.
    """
    dialect = get_dialect("ocaml")
    modules_per_host = 12
    scaled = build_corpus("ocaml", min(units, 24) * modules_per_host)
    requests = []
    for start in range(0, len(scaled), modules_per_host):
        chunk = scaled[start : start + modules_per_host]
        host_sources = tuple(
            source for request in chunk for source in request.ocaml_sources
        )
        requests.append(
            CheckRequest(
                name=f"host{start // modules_per_host:03d}",
                c_sources=(),
                ocaml_sources=host_sources,
                dialect="ocaml",
            )
        )
    with tempfile.TemporaryDirectory() as tmp:
        previous = os.environ.get(seeds.SEED_DIR_ENV)
        os.environ[seeds.SEED_DIR_ENV] = tmp
        try:
            # populate the artifacts via write-through
            seeds.clear_seed_memos()
            for request in requests:
                dialect.host_interface_for(request)
            load_s = rebuild_s = float("inf")
            for _ in range(max(3, repeats)):
                seeds.clear_seed_memos()
                started = time.perf_counter()
                for request in requests:
                    dialect.host_interface_for(request)
                load_s = min(load_s, time.perf_counter() - started)

                os.environ[seeds.SEED_ARTIFACTS_ENV] = "0"
                try:
                    seeds.clear_seed_memos()
                    started = time.perf_counter()
                    for request in requests:
                        dialect.host_interface_for(request)
                    rebuild_s = min(
                        rebuild_s, time.perf_counter() - started
                    )
                finally:
                    del os.environ[seeds.SEED_ARTIFACTS_ENV]
            stats = seeds.seed_stats()
        finally:
            seeds.clear_seed_memos()
            if previous is None:
                os.environ.pop(seeds.SEED_DIR_ENV, None)
            else:
                os.environ[seeds.SEED_DIR_ENV] = previous
    return {
        "hosts": len(requests),
        "rebuild_seconds": round(rebuild_s, 4),
        "load_seconds": round(load_s, 4),
        "speedup": round(rebuild_s / max(load_s, 1e-9), 2),
        "artifact_rejects": stats.get("artifact_rejects", 0),
    }


# -- diagnostics equivalence ----------------------------------------------------


def corpus_diagnostics(dialect: str) -> str:
    """Canonical diagnostics dump for the dialect's example corpus.

    One block per translation unit in scan order; no timing, no cache
    state, and paths relative to ``examples/`` — only what the analysis
    concluded, so the dump is stable across machines and checkouts and
    byte-comparable across refactors.
    """
    project = Project.from_directory(CORPORA[dialect], dialect=dialect)
    report = run_batch(project.to_requests(), jobs=1, cache=None)
    prefix = f"{EXAMPLES}{os.sep}"
    lines: list[str] = []
    for result in report.results:
        lines.append(f"== {Path(result.name).name}")
        if result.failure is not None:
            lines.append(f"   engine failure: {result.failure}")
            continue
        for diag in result.diagnostics:
            lines.append("   " + diag.render().replace(prefix, ""))
    return "\n".join(lines) + "\n"


def golden_path(dialect: str) -> Path:
    return GOLDEN_DIR / f"cold_{dialect}.txt"


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--units", type=int, default=100, help="corpus size per dialect"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="cold sweeps per dialect; the best run is reported",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizing (30 units); same gates",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required cold per-unit speedup vs the frozen baseline",
    )
    parser.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=0.02,
        help="allowed cold-time ratio overhead of the disabled telemetry "
        "hooks vs fully bypassed hooks (default: 0.02 = 2%%)",
    )
    parser.add_argument(
        "--min-seed-artifact-speedup",
        type=float,
        default=2.0,
        help="required host-interface artifact-load speedup vs rebuild",
    )
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="freeze this run's per-unit times as the baseline and skip gates",
    )
    parser.add_argument(
        "--update-goldens",
        action="store_true",
        help="rewrite the golden diagnostics dumps from this run",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the JSON payload to PATH (for bench-trend)",
    )
    args = parser.parse_args(argv)

    units = 30 if args.quick else args.units
    repeats = 2 if args.quick else args.repeats

    baseline: dict | None = None
    if BASELINE_PATH.is_file():
        baseline = json.loads(BASELINE_PATH.read_text())

    # Host-speed calibration: the baseline froze wall times on one
    # machine at one moment; CPU throttling or different hardware shifts
    # every measurement uniformly.  The baseline also froze the reference
    # workload's time, so the ratio between then and now rescales the
    # frozen numbers to this host's current speed (clamped — a wildly
    # different host should fail loudly rather than be silently excused).
    calibration_s = measure_calibration()
    scale = 1.0
    if baseline is not None and baseline.get("calibration_seconds"):
        scale = calibration_s / baseline["calibration_seconds"]
        scale = min(4.0, max(0.25, scale))

    failures: list[str] = []
    dialects: dict[str, dict] = {}
    for dialect in CORPORA:
        requests = build_corpus(dialect, units)
        cold_s = time_cold(requests, repeats)
        per_unit = cold_s / units
        entry: dict = {
            "units": units,
            "cold_seconds": round(cold_s, 4),
            "per_unit_seconds": round(per_unit, 6),
            "units_per_second": round(units / max(cold_s, 1e-9), 2),
        }
        if baseline is not None and not args.record_baseline:
            base_per_unit = baseline["per_unit_seconds"].get(dialect)
            if base_per_unit is None:
                failures.append(f"{dialect}: baseline has no per-unit time")
            else:
                scaled_base = base_per_unit * scale
                speedup = scaled_base / max(per_unit, 1e-9)
                entry["baseline_per_unit_seconds"] = base_per_unit
                entry["host_speed_scale"] = round(scale, 3)
                entry["speedup_vs_baseline"] = round(speedup, 2)
                if speedup < args.min_speedup:
                    failures.append(
                        f"{dialect}: cold per-unit speedup {speedup:.2f}x "
                        f"< required {args.min_speedup:.2f}x "
                        f"({per_unit * 1e3:.2f} ms/unit vs baseline "
                        f"{base_per_unit * 1e3:.2f} ms/unit scaled by "
                        f"{scale:.3f})"
                    )
        dialects[dialect] = entry

    # telemetry-off gate: disabled hooks must be indistinguishable from
    # no hooks (best-of-3 both ways absorbs scheduler noise)
    telemetry_overhead = measure_telemetry_off_overhead(
        min(units, 30), max(5, repeats)
    )
    if (
        not args.record_baseline
        and telemetry_overhead > args.max_telemetry_overhead
    ):
        failures.append(
            f"telemetry: disabled-hook overhead "
            f"{telemetry_overhead * 100:.2f}% > allowed "
            f"{args.max_telemetry_overhead * 100:.2f}%"
        )

    # seed-artifact gate: loading a pickled host interface must beat
    # re-deriving it, or the artifact tier is pure overhead
    seed_artifact = measure_seed_artifact_speedup(units, repeats)
    if (
        not args.record_baseline
        and seed_artifact["speedup"] < args.min_seed_artifact_speedup
    ):
        failures.append(
            f"seeds: artifact-load speedup {seed_artifact['speedup']:.2f}x "
            f"< required {args.min_seed_artifact_speedup:.2f}x "
            f"(load {seed_artifact['load_seconds'] * 1e3:.1f} ms vs "
            f"rebuild {seed_artifact['rebuild_seconds'] * 1e3:.1f} ms)"
        )

    # equivalence gate: byte-identical diagnostics on the real examples
    equivalence: dict[str, bool] = {}
    for dialect in CORPORA:
        dump = corpus_diagnostics(dialect)
        path = golden_path(dialect)
        if args.update_goldens:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(dump)
            equivalence[dialect] = True
            continue
        if not path.is_file():
            equivalence[dialect] = False
            failures.append(f"{dialect}: missing golden dump {path.name}")
            continue
        identical = path.read_text() == dump
        equivalence[dialect] = identical
        if not identical:
            failures.append(
                f"{dialect}: diagnostics differ from golden {path.name}"
            )

    if args.record_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "schema": BASELINE_SCHEMA,
                    "recorded_unix": int(time.time()),
                    "machine": platform.machine() or "unknown",
                    "units": units,
                    "calibration_seconds": calibration_s,
                    "per_unit_seconds": {
                        d: dialects[d]["per_unit_seconds"] for d in dialects
                    },
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"recorded baseline -> {BASELINE_PATH}", file=sys.stderr)
        failures = []  # recording runs never gate

    payload = {
        "schema": "mlffi-bench-cold",
        "units": units,
        "repeats": repeats,
        "calibration_seconds": round(calibration_s, 5),
        "host_speed_scale": round(scale, 3),
        "min_speedup": args.min_speedup,
        "baseline": BASELINE_PATH.name if baseline is not None else None,
        "telemetry_off_overhead": round(telemetry_overhead, 4),
        "max_telemetry_overhead": args.max_telemetry_overhead,
        "seed_artifact": seed_artifact,
        "seed_artifact_speedup": seed_artifact["speedup"],
        "min_seed_artifact_speedup": args.min_seed_artifact_speedup,
        "dialects": dialects,
        "gates": {
            "diagnostics_byte_identical": equivalence,
            "failures": failures,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json is not None:
        Path(args.json).write_text(text + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
