"""Record a ``BENCH_PR<n>.json``: perfbench medians for a base revision
against this checkout.

Usage, from any directory::

    python scripts/bench_record.py BASE OUT

``BASE`` is any git revision.  The change side is this checkout's
tracked files as they stand, staged or not, snapshotted with
``git stash create`` (or ``HEAD`` when the tree is clean); untracked
files are not part of it.  Both revisions are checked out detached in
sibling temporary ``git worktree`` checkouts, made the same way and
removed at the end, so neither side runs from a warmer or differently
placed tree.
Each tree runs its own ``perfbench/run.py`` as a child process, with the
command and ``--seconds`` taken from ``BENCHMARK.json``.

For every workload the recorder runs ten pairs, alternating which side
runs first, with the same seed on both sides of a pair, then one
``--trace 1 --seed 1`` run per side for the per-layer metrics.  ``OUT``
gets, per end-to-end metric, each side's median and quartiles, the pair
wins and a verdict:

* ``regression`` -- the change's median is worse than the base's by more
  than the metric's bound;
* ``gain`` -- the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the base's quartiles;
* ``unresolved`` -- the quartile spread of either side, relative to its
  median, is wider than the bound and not every change run reads better
  than every base run;
* ``unchanged`` -- none of the above.

The exit status is 1 when a metric regresses, a run is not
``correct: true`` or the change's failed share is higher than the
base's; otherwise 0.  The recorder never imports or edits ``perfbench/``.

A/A check: when ``BASE`` has the same tree as the change (for instance
``BASE`` = ``HEAD`` on a clean checkout), both sides run the same code and
every verdict other than ``unchanged`` is reported as a problem.  Run one
before trusting a record made on a new host.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SIDES = ("base", "change")
SCHEMA = "mlffi-bench-record/1"

#: (tree, workload, seed, trace) -> perfbench's last stdout line, parsed
Runner = Callable[[Path, str, int, int], dict]


def perfbench_runner(command: list[str], seconds: float) -> Runner:
    """Run ``command`` (BENCHMARK.json's) in a tree as a child process."""

    def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
        argv = [
            *command,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", f"{seconds:g}",
            "--trace", str(trace),
        ]
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            tail = (proc.stderr or proc.stdout)[-400:]
            return {
                "correct": False,
                "attempted": 1,
                "failed": 1,
                "metrics": {},
                "error": f"exit {proc.returncode}: {tail}",
            }

    return run


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize_metric(
    pairs: list[tuple[float, float]], bound: float, better: str
) -> dict:
    """Medians, quartiles, pair wins and the verdict of one metric.

    ``pairs`` holds ``(base, change)`` values, one tuple per pair run.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    b_q1, b_med, b_q3 = _quartiles(base)
    c_q1, c_med, c_q3 = _quartiles(change)
    # positive = the change is worse, as a fraction of the base median
    worse_by = sign * (c_med - b_med) / b_med if b_med else 0.0
    change_wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    base_wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    spread = max(
        (b_q3 - b_q1) / b_med if b_med else 0.0,
        (c_q3 - c_q1) / c_med if c_med else 0.0,
    )
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if worse_by > bound:
        verdict = "regression"
    elif (
        worse_by < 0
        and change_wins >= 0.9 * len(pairs)
        and abs(c_med - b_med) > b_q3 - b_q1
    ):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "values": base},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "values": change},
        "change_worse_by": round(worse_by, 4),
        "spread": round(spread, 4),
        "change_wins": change_wins,
        "base_wins": base_wins,
        "ties": len(pairs) - change_wins - base_wins,
        "verdict": verdict,
    }


def summarize_workload(spec: dict, runs: list[dict], traced: dict) -> dict:
    """Fold one workload's pair runs and traced runs into its record.

    ``runs`` holds ``{"seed", "order", "base", "change"}`` per pair, each
    side a parsed perfbench result; ``traced`` maps side -> result.
    """
    problems: list[str] = []
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [
            (run["base"]["metrics"][name]["value"],
             run["change"]["metrics"][name]["value"])
            for run in runs
            if name in run["base"]["metrics"]
            and name in run["change"]["metrics"]
        ]
        if not pairs:
            problems.append(f"{name}: no pair reported it")
            continue
        summary = summarize_metric(pairs, metric["bound"], metric["better"])
        summary.update(unit=metric["unit"], better=metric["better"],
                       bound=metric["bound"])
        end_to_end[name] = summary
        if summary["verdict"] == "regression":
            problems.append(
                f"{name}: change median worse by "
                f"{summary['change_worse_by']:.1%} > bound {metric['bound']:.0%}"
            )

    failed_share = {}
    for side in SIDES:
        results = [run[side] for run in runs] + [traced[side]]
        failed_share[side] = (
            sum(r["failed"] for r in results)
            / max(sum(r["attempted"] for r in results), 1)
        )
        wrong = sum(1 for r in results if r.get("correct") is not True)
        if wrong:
            problems.append(f"{side}: {wrong} run(s) not correct")
    if failed_share["change"] > failed_share["base"]:
        problems.append(
            f"failed share rose: {failed_share['base']:.4f} -> "
            f"{failed_share['change']:.4f}"
        )

    per_layer = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        per_layer[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{
                side: traced[side]["metrics"].get(name, {}).get("value")
                for side in SIDES
            },
        }
    return {
        "end_to_end": end_to_end,
        "failed_share": failed_share,
        "per_layer": per_layer,
        "runs": runs,
        "traced": traced,
        "problems": problems,
    }


def record(
    spec: dict, trees: dict[str, Path], runner: Runner, log=print,
    same_code: bool = False,
) -> dict:
    """Run every workload's pairs and traced runs; return the document
    without its revisions.  With ``same_code`` (an A/A run) any verdict
    but ``unchanged`` is a problem."""
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for index in range(PAIRS):
            seed = index + 1
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            run: dict = {"seed": seed, "order": list(order)}
            for side in order:
                run[side] = runner(trees[side], workload, seed, 0)
                log(f"{workload} pair {index + 1}/{PAIRS} {side}: "
                    f"correct={run[side].get('correct')}")
            runs.append(run)
        traced = {side: runner(trees[side], workload, 1, 1) for side in SIDES}
        log(f"{workload} traced: " + ", ".join(
            f"{side} correct={traced[side].get('correct')}" for side in SIDES))
        summary = summarize_workload(spec, runs, traced)
        if same_code:
            summary["problems"] += [
                f"A/A: {name} reads {row['verdict']} between identical trees"
                for name, row in summary["end_to_end"].items()
                if row["verdict"] != "unchanged"
            ]
        workloads[workload] = summary
    problems = [
        f"{name}: {problem}"
        for name, summary in workloads.items()
        for problem in summary["problems"]
    ]
    return {
        "schema": SCHEMA,
        "pairs": PAIRS,
        "run_seconds": spec["run_seconds"],
        "command": spec["command"],
        "workloads": workloads,
        "problems": problems,
        "ok": not problems,
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def snapshot() -> str:
    """A commit of this checkout's tracked files, staged or not."""
    return _git("stash", "create") or _git("rev-parse", "HEAD")


@contextmanager
def worktrees(revisions: dict[str, str]):
    """Check each side's revision out detached in sibling temporary
    worktrees; yield side -> tree."""
    parent = Path(tempfile.mkdtemp(prefix="bench-record-"))
    trees: dict[str, Path] = {}
    try:
        for side in SIDES:
            trees[side] = parent / side
            _git("worktree", "add", "--detach", str(trees[side]), revisions[side])
        yield trees
    finally:
        for tree in trees.values():
            _git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(parent, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE", help="git revision to compare against")
    parser.add_argument("out", metavar="OUT", help="path of the JSON document to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    revisions = {
        "base": _git("rev-parse", f"{args.base}^{{commit}}"),
        "change": snapshot(),
        "head": _git("rev-parse", "HEAD"),
    }
    trees = {side: _git("rev-parse", f"{revisions[side]}^{{tree}}") for side in SIDES}
    revisions.update(base_tree=trees["base"], change_tree=trees["change"],
                     same_code=trees["base"] == trees["change"])
    runner = perfbench_runner(spec["command"], spec["run_seconds"])
    with worktrees(revisions) as checkouts:
        document = record(
            spec,
            checkouts,
            runner,
            log=lambda line: print(line, file=sys.stderr, flush=True),
            same_code=revisions["same_code"],
        )
    document = {"schema": document.pop("schema"), "revisions": revisions, **document}
    Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=False) + "\n")
    for name, summary in document["workloads"].items():
        for metric, row in summary["end_to_end"].items():
            print(
                f"{name} {metric}: base {row['base']['median']:.4g} "
                f"change {row['change']['median']:.4g} {row['unit']} "
                f"({row['change_wins']}/{document['pairs']} wins) {row['verdict']}"
            )
    for problem in document["problems"]:
        print(f"problem: {problem}")
    return 0 if document["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
