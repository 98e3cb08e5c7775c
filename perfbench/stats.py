"""Summary statistics the benchmark reports.

Timings are reported as a median plus a tail: the highest percentile
that still has at least ten samples beyond it.  With few samples that
rule would land below the median, so the tail is clamped to the median
and reports how many samples it rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

#: a tail percentile must have at least this many samples above it
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The tail order statistic of a sample."""

    value: float
    #: the percentile it sits at, 0-100
    percentile: float
    #: samples strictly beyond it in sorted order
    beyond: int
    samples: int


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest percentile with at least ``beyond`` samples above it.

    Sorted ascending, the k-th value (1-based) has ``n - k`` samples
    beyond it, so the tail is the value at ``k = n - beyond``.  When that
    would fall below the median (fewer than about ``2 * beyond`` samples),
    the upper median, ``k = n // 2 + 1``, is reported instead.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    k = min(n, max(n - beyond, n // 2 + 1))
    return Tail(
        value=ordered[k - 1],
        percentile=100.0 * k / n,
        beyond=n - k,
        samples=n,
    )

