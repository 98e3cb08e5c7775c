"""Telemetry benchmark: what tracing + metrics cost when switched ON.

``bench_cold.py`` gates the *disabled* hooks (must be free within 2%);
this harness gates the *enabled* path and validates what it produces:

1. **overhead** — a cold sweep with a tracer installed, per-request
   span recording, and the metrics registry enabled must stay within
   ``--max-overhead`` (default 1.25x) of the identical untraced sweep.
   Telemetry that doubles analysis time never gets left on.
2. **trace shape** — the recorded events must be well-formed Chrome
   ``trace_event`` complete events, there must be exactly one ``unit``
   span per translation unit, and every per-unit phase span (lex,
   parse, lower, seed, dataflow, unify-constraints) must nest inside a
   unit span by time containment — that is what makes the Perfetto
   view readable.
3. **metrics shape** — the registry exposition must parse as the
   Prometheus text format and carry a ``mlffi_unit_seconds`` histogram
   whose ``_count`` equals the number of analyzed units.

Run::

    python benchmarks/bench_telemetry.py --units 60
    python benchmarks/bench_telemetry.py --quick --json report.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

from bench_cold import build_corpus
from repro.engine import run_batch
from repro.telemetry import (
    REGISTRY,
    Tracer,
    aggregate_phases,
    install,
    set_metrics_enabled,
    uninstall,
)

#: per-unit phase spans every traced unit must contribute
EXPECTED_PHASES = (
    "lex",
    "parse",
    "lower",
    "seed",
    "dataflow",
    "unify-constraints",
)

#: a Prometheus text-format sample line (after the # comment lines)
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$"
)


def time_sweep(requests, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        report = run_batch(requests, jobs=1, cache=None)
        best = min(best, time.perf_counter() - started)
        failures = [r.name for r in report.results if r.failure is not None]
        if failures:
            raise RuntimeError(f"sweep had engine failures: {failures}")
    return best


def validate_trace(events: list, units: int) -> list[str]:
    """Structural problems with the recorded trace; empty = valid."""
    problems: list[str] = []
    if not events:
        return ["no trace events recorded"]
    for event in events:
        missing = {"name", "cat", "ph", "ts", "dur", "pid", "tid"} - set(
            event
        )
        if missing or event.get("ph") != "X":
            problems.append(f"malformed event: {event}")
            break
    unit_spans = [e for e in events if e.get("cat") == "unit"]
    if len(unit_spans) != units:
        problems.append(
            f"expected {units} unit spans, got {len(unit_spans)}"
        )
    phases = aggregate_phases(events)
    for phase in EXPECTED_PHASES:
        if phases.get(phase, {}).get("count", 0) < units:
            problems.append(
                f"phase `{phase}` recorded "
                f"{phases.get(phase, {}).get('count', 0)} spans, "
                f"want >= {units}"
            )
    # nesting: each phase span must fall inside some unit span on the
    # same pid (time containment is how Perfetto builds the hierarchy)
    windows = [
        (e["pid"], e["ts"], e["ts"] + e["dur"]) for e in unit_spans
    ]
    orphans = 0
    for event in events:
        if event.get("cat") != "phase":
            continue
        if event["name"] not in EXPECTED_PHASES:
            continue
        end = event["ts"] + event["dur"]
        if not any(
            pid == event["pid"] and lo <= event["ts"] and end <= hi + 1
            for pid, lo, hi in windows
        ):
            orphans += 1
    if orphans:
        problems.append(
            f"{orphans} per-unit phase spans not contained in any "
            "unit span"
        )
    return problems


def validate_metrics(text: str, units: int) -> list[str]:
    """Prometheus-shape problems with the exposition; empty = valid."""
    problems: list[str] = []
    if not text.strip():
        return ["empty metrics exposition"]
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"bad exposition line: {line!r}")
    counts = re.findall(
        r"^mlffi_unit_seconds_count\{[^}]*outcome=\"fresh\"[^}]*\} (\d+)",
        text,
        re.MULTILINE,
    )
    total = sum(int(c) for c in counts)
    if total != units:
        problems.append(
            f"mlffi_unit_seconds fresh count {total} != units {units}"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--units", type=int, default=60, help="corpus size (default: 60)"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="sweeps per mode; the best run is compared (default: 3)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizing (24 units); same gates",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=1.25,
        help="allowed traced/untraced cold-time ratio (default: 1.25)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the JSON payload to PATH",
    )
    args = parser.parse_args(argv)
    units = 24 if args.quick else args.units
    repeats = 2 if args.quick else args.repeats

    requests = build_corpus("ocaml", units)
    run_batch(requests[:3], jobs=1, cache=None)  # warm the interpreter

    plain_s = time_sweep(requests, repeats)

    traced_requests = [replace(r, trace=True) for r in requests]
    tracer = Tracer()
    REGISTRY.reset()
    install(tracer)
    set_metrics_enabled(True)
    try:
        traced_s = time_sweep(traced_requests, repeats)
        metrics_text = REGISTRY.render()
    finally:
        set_metrics_enabled(False)
        uninstall()
    events = tracer.export()

    overhead_ratio = traced_s / max(plain_s, 1e-9)
    # the best-of-N sweeps each re-record spans; shape checks only need
    # one sweep's worth, so validate against multiples of `units`
    sweeps = max(1, repeats)
    trace_problems = validate_trace(events, units * sweeps)
    metrics_problems = validate_metrics(metrics_text, units * sweeps)

    failures: list[str] = []
    if overhead_ratio > args.max_overhead:
        failures.append(
            f"telemetry-on overhead {overhead_ratio:.3f}x > allowed "
            f"{args.max_overhead:.2f}x"
        )
    failures.extend(f"trace: {p}" for p in trace_problems)
    failures.extend(f"metrics: {p}" for p in metrics_problems)

    payload = {
        "schema": "mlffi-bench-telemetry",
        "units": units,
        "repeats": repeats,
        "plain_seconds": round(plain_s, 4),
        "traced_seconds": round(traced_s, 4),
        "overhead_ratio": round(overhead_ratio, 4),
        "max_overhead": args.max_overhead,
        "trace_events": len(events),
        "phases": aggregate_phases(events),
        "gates": {
            "overhead_within_bounds": overhead_ratio <= args.max_overhead,
            "trace_well_formed": not trace_problems,
            "metrics_well_formed": not metrics_problems,
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
