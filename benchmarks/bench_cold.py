"""Cold-path smoke gates that the repository benchmark does not cover.

perfbench (``perfbench/run.py``) measures cold throughput end to end; this
script keeps only what it cannot see, each gated in one run:

* **telemetry off** -- with no tracer installed and metrics off, the
  instrumentation hooks must cost under ``--max-telemetry-overhead``
  (2%) of a cold sweep over the scaled ocaml example corpus;
* **seed artifacts** -- loading pickled host interfaces must beat
  re-deriving them by ``--min-seed-artifact-speedup`` (2x);
* **worker pool** -- no perfbench workload runs the pool: on a host with
  two or more cores a 4-worker sweep must beat the sequential one, on
  one core it must cost under 2x, in a majority of alternating pairs;
  both sweeps must report the same diagnostics;
* **equivalence** -- diagnostics over the three real example corpora
  (``examples/glue``, ``examples/pyext``, ``examples/jni``) must be
  byte-identical to the golden dumps under ``benchmarks/goldens/``.

Run::

    python benchmarks/bench_cold.py --quick
    python benchmarks/bench_cold.py --update-goldens
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro import seeds
from repro.api import Project
from repro.bench.specs import spec_by_name
from repro.bench.synth import synthesize_scaled
from repro.boundary import get_dialect
from repro.engine import CheckRequest, run_batch
from repro.source import SourceFile
from repro.telemetry import set_hooks_enabled

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

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


def measure_pool(units: int, c_loc: int, jobs: int, pairs: int) -> dict:
    """Sequential vs ``jobs``-worker cold sweep over synthesized units.

    Each unit is defect-free Figure 9 glue (``apm-1.00`` scaled to
    ``c_loc`` lines of C).  A CPU-bound pool can only win on a host that
    runs workers side by side, so a pair passes on a speedup with two or
    more cores and on a bounded overhead with one.  The legs alternate
    which runs first, and the gate holds when a majority of the
    ``pairs`` pass: one load spike on a shared runner costs one pair,
    while a real pool regression loses every one.
    """
    base = spec_by_name("apm-1.00")
    requests = []
    for index in range(units):
        program = synthesize_scaled(base, c_loc, unique_prefix=index + 1)
        requests.append(
            CheckRequest(
                name=f"unit{index:03}.c",
                c_sources=(SourceFile(f"unit{index:03}.c", program.c_source),),
                ocaml_sources=(
                    SourceFile(f"unit{index:03}.ml", program.ocaml_source),
                ),
            )
        )

    def sweep(workers: int):
        started = time.perf_counter()
        report = run_batch(requests, jobs=workers, cache=None)
        return time.perf_counter() - started, report

    cores = os.cpu_count() or 1
    if cores >= 2:
        kind, limit = "parallel_beats_sequential", 1.0
    else:
        kind, limit = "parallel_overhead_bounded", 2.0
    timings: list[dict[int, float]] = []
    consistent = True
    for index in range(pairs):
        order = (1, jobs) if index % 2 == 0 else (jobs, 1)
        elapsed: dict[int, float] = {}
        diagnostics = []
        for workers in order:
            elapsed[workers], report = sweep(workers)
            diagnostics.append([r.to_dict()["diagnostics"] for r in report.results])
        consistent = consistent and diagnostics[0] == diagnostics[1]
        timings.append(elapsed)
    passing = sum(1 for t in timings if t[jobs] < limit * t[1])
    return {
        "units": units,
        "c_loc_per_unit": c_loc,
        "jobs": jobs,
        "cores": cores,
        "sequential_seconds": [round(t[1], 4) for t in timings],
        "parallel_seconds": [round(t[jobs], 4) for t in timings],
        "pairs_passing": passing,
        "gate_kind": kind,
        "passed": passing > pairs // 2,
        "consistent": consistent,
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
        "--units", type=int, default=100, help="scaled corpus size"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="measured sweeps per leg; the best run is kept",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizing (30 units); same gates",
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
        "--update-goldens",
        action="store_true",
        help="rewrite the golden diagnostics dumps from this run",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the JSON payload to PATH",
    )
    args = parser.parse_args(argv)

    units = 30 if args.quick else args.units
    repeats = 2 if args.quick else args.repeats
    failures: list[str] = []

    # telemetry-off gate: disabled hooks must be indistinguishable from
    # no hooks
    telemetry_overhead = measure_telemetry_off_overhead(
        min(units, 30), max(5, repeats)
    )
    if telemetry_overhead > args.max_telemetry_overhead:
        failures.append(
            f"telemetry: disabled-hook overhead "
            f"{telemetry_overhead * 100:.2f}% > allowed "
            f"{args.max_telemetry_overhead * 100:.2f}%"
        )

    # seed-artifact gate: loading a pickled host interface must beat
    # re-deriving it, or the artifact tier is pure overhead
    seed_artifact = measure_seed_artifact_speedup(units, repeats)
    if seed_artifact["speedup"] < args.min_seed_artifact_speedup:
        failures.append(
            f"seeds: artifact-load speedup {seed_artifact['speedup']:.2f}x "
            f"< required {args.min_seed_artifact_speedup:.2f}x "
            f"(load {seed_artifact['load_seconds'] * 1e3:.1f} ms vs "
            f"rebuild {seed_artifact['rebuild_seconds'] * 1e3:.1f} ms)"
        )

    # 32 units of 220 lines: at 8 units of 120 lines a warm sequential
    # sweep takes ~0.1 s, less than the pool's start-up
    pool = measure_pool(32, 220, 4, 5)
    if not pool["passed"]:
        failures.append(
            f"pool: {pool['gate_kind']} held in {pool['pairs_passing']} of "
            f"{len(pool['parallel_seconds'])} pairs ({pool['jobs']} workers "
            f"{pool['parallel_seconds']} s vs sequential "
            f"{pool['sequential_seconds']} s on {pool['cores']} core(s))"
        )
    if not pool["consistent"]:
        failures.append("pool: parallel diagnostics differ from sequential")

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

    payload = {
        "schema": "mlffi-bench-cold",
        "units": units,
        "repeats": repeats,
        "telemetry_off_overhead": round(telemetry_overhead, 4),
        "max_telemetry_overhead": args.max_telemetry_overhead,
        "seed_artifact": seed_artifact,
        "min_seed_artifact_speedup": args.min_seed_artifact_speedup,
        "pool": pool,
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
