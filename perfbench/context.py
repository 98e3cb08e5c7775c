"""What one benchmark run carries: where it lives, its seed and budget,
and what it has measured so far."""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from procs import CLI, ChildRun, hermetic_env, run_child
from stats import tail


@dataclass
class Context:
    checkout: Path
    #: fresh per run: corpora, seed dirs, cache dirs and child output
    temp_root: Path
    seed: int
    seconds: float
    #: where the traced run writes its Chrome trace
    trace_dir: Path
    _ids: itertools.count = field(default_factory=itertools.count)

    def fresh_dir(self, name: str) -> Path:
        path = self.temp_root / f"{name}-{next(self._ids)}"
        path.mkdir(parents=True)
        return path

    def env(self, seed_dir: Optional[Path] = None) -> dict[str, str]:
        return hermetic_env(self.checkout, self.temp_root, seed_dir or self.fresh_dir("seeds"))

    def cli(self, *args: str) -> list[str]:
        return [*CLI, *map(str, args)]

    def run(self, argv: list[str], env: dict[str, str]) -> ChildRun:
        return run_child(argv, env, self.temp_root / "child")


@dataclass
class Outcome:
    """What a run reports: metrics, operation counts and verdicts."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    mismatches: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def verdict(self, reason: Optional[str]) -> None:
        self.verdicts += 1
        if reason is not None:
            self.mismatches.append(reason)

    def operation(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                self.notes.append(f"failed: {what}")

    def note(self, line: str) -> None:
        self.notes.append(line)

    @property
    def verdict_match(self) -> float:
        return 1.0 - len(self.mismatches) / self.verdicts if self.verdicts else 0.0

    @property
    def correct(self) -> bool:
        return self.verdicts > 0 and not self.mismatches and self.failed == 0


def timing_note(name: str, seconds: list[float], scale: float = 1000.0, unit: str = "ms") -> str:
    """``name: p50 X, tail Y at pNN (n samples, m beyond)``."""
    t = tail(seconds)
    return (
        f"{name}: p50 {statistics.median(seconds) * scale:.3f} {unit}, "
        f"tail {t.value * scale:.3f} {unit} at p{t.percentile:.0f} "
        f"({t.samples} samples, {t.beyond} beyond)"
    )


class Deadline:
    """The measurement budget of one run."""

    def __init__(self, seconds: float):
        self.started = time.perf_counter()
        self.seconds = seconds

    @property
    def passed(self) -> bool:
        return time.perf_counter() - self.started >= self.seconds
