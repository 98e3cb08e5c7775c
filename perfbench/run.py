"""The repository benchmark: ``mlffi-check`` end to end, and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig9-oneshot --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics through the real CLI, in
child processes.  ``--trace 1`` replays the same inputs in-process with
every layer wrapped in spans, prints the per-layer metrics and writes a
Chrome trace under ``.perfbench-out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

#: end-to-end metrics every workload reports, with their units
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "pass_s": "s",
    "noop_ms": "ms",
    "peak_rss_mb": "MB",
}


def _workloads():
    import workload_daemon
    import workload_fig9
    import workload_link

    return {
        "fig9-oneshot": workload_fig9,
        "link-sweep": workload_link,
        "daemon-edit": workload_daemon,
    }


WORKLOAD_NAMES = ("fig9-oneshot", "link-sweep", "daemon-edit")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare(checkout: Path, temp_root: Path) -> None:
    """Compile the program's bytecode once, untimed, so every measured
    child starts the way an installed package does; then point this
    process's own home, caches and seed artifacts into the temp root."""
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(checkout / "src")],
        capture_output=True, text=True,
    )
    if compiled.returncode != 0:
        raise RuntimeError(f"compileall failed: {compiled.stdout[-400:]}{compiled.stderr[-400:]}")
    home = temp_root / "home"
    home.mkdir(parents=True)
    os.environ.update(
        HOME=str(home),
        XDG_CACHE_HOME=str(home / ".cache"),
        TMPDIR=str(temp_root),
        MLFFI_SEED_DIR=str(temp_root / "seeds-inprocess"),
    )
    tempfile.tempdir = None
    sys.path.insert(0, str(checkout / "src"))


def _terminate(signum, _frame):
    # unwind through every ``finally``: children are reaped, temp removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (CHECKOUT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no mlffi-check sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    runs = CHECKOUT / ".perfbench-tmp"
    runs.mkdir(exist_ok=True)
    temp_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs))
    try:
        _prepare(CHECKOUT, temp_root)
        from context import Context

        ctx = Context(
            checkout=CHECKOUT,
            temp_root=temp_root,
            seed=args.seed,
            seconds=args.seconds,
            trace_dir=CHECKOUT / ".perfbench-out",
        )
        module = _workloads()[args.workload]
        outcome = module.traced(ctx) if args.trace else module.measure(ctx)
    finally:
        shutil.rmtree(temp_root, ignore_errors=True)

    from layers import LAYER_UNITS

    expected = LAYER_UNITS if args.trace else END_TO_END
    reported = {name: unit for name, (_value, unit) in outcome.metrics.items()}
    if reported != expected:
        print(f"error: reported metrics {reported} != {expected}", file=sys.stderr)
        return 1
    print(f"== {args.workload} seed={args.seed} trace={args.trace}")
    for line in outcome.notes:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"verdict_match: {outcome.verdict_match:.4f} ({outcome.verdicts} verdicts)")
    print(f"failed_share: {failed_share:.4f} ({outcome.failed} of {outcome.attempted})")
    for reason in outcome.mismatches[:10]:
        print(f"mismatch: {reason}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
