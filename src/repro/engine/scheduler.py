"""Batch scheduler: the sweep loop, collected into one report.

:func:`run_batch` hands a materialized request sequence to
:func:`repro.engine.stream.stream_batch` with a window as large as the
input, so every request stays pending until the input ends: duplicates
anywhere in the batch coalesce, the pool is sized by the batch's misses,
and the results merge into a :class:`~repro.engine.jobs.BatchReport` in
submission order, deterministic no matter which worker finished first.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .jobs import BatchReport, CheckRequest, CheckResult
from .stream import Cache, default_jobs, stream_batch

__all__ = ["Cache", "default_jobs", "run_batch"]


def run_batch(
    requests: Sequence[CheckRequest],
    *,
    jobs: int = 1,
    cache: Optional[Cache] = None,
) -> BatchReport:
    """Analyze ``requests`` and merge their results into one report."""
    results: list[CheckResult] = []
    stats = stream_batch(
        requests,
        jobs=jobs,
        cache=cache,
        on_result=results.append,
        window=len(requests),
    )
    return stats.batch_report(results)
