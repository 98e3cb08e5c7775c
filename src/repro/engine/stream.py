"""The sweep loop: every corpus pass in the engine runs through here.

:func:`stream_batch` consumes a lazy request iterator (see
:func:`repro.corpus.iter_tree`) and, for each request in submission order,

1. computes its cache key — only when there is a cache, so cacheless
   sweeps skip content hashing;
2. probes the cache, where a hit is never re-analyzed;
3. coalesces a duplicate of a still-pending fresh run (same key, hence
   provably the same analysis) onto that run's result, marked
   ``cache_tier="coalesced"``;
4. runs the miss inline or submits it to a ``multiprocessing`` pool;
5. stores the fresh result back into the cache;
6. absorbs the worker's trace events into the parent tracer;
7. records its metrics and folds it into :class:`StreamStats`;
8. hands it to ``on_result`` exactly once, then drops it.

At most ``window`` requests are pending at once, so peak residency is the
window, not the corpus: RSS stays flat as the corpus grows, and the
caller keeps only what it accumulates (the linker keeps symbol tables,
the CLI keeps a tally).  :func:`repro.engine.scheduler.run_batch` is this
loop with a window as large as its input.

Until a pool is running, misses wait: they are handed over only when the
oldest of them reaches the head of a full window, or the input ends.
That decides the pool once: no pool until at least two misses are
waiting, and never more workers than waiting misses — a sweep over a
warm cache forks nothing.  Once a pool runs, each miss is submitted as
it arrives.  A pool that cannot be created (sandboxes without
semaphores, restricted platforms) degrades to running inline.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Callable, Iterable, Optional, Protocol

from ..telemetry import current_tracer
from ..telemetry.metrics import (
    count_cache,
    observe_stream_window,
    observe_unit,
)
from .jobs import CheckRequest, CheckResult, StreamStats
from .worker import run_request


class Cache(Protocol):
    def load(self, key: str) -> Optional[CheckResult]: ...

    def store(self, key: str, result: CheckResult) -> None: ...


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0`` (auto)."""
    return max(1, min(8, os.cpu_count() or 1))


def default_window(jobs: int) -> int:
    """In-flight bound: enough to keep ``jobs`` workers fed, small
    enough that resident results stay O(jobs), not O(corpus)."""
    return max(4, jobs * 4)


def _start_pool(processes: int):
    """A worker pool, or ``None`` when the platform cannot make one."""
    import multiprocessing

    try:
        return multiprocessing.get_context().Pool(processes=processes)
    except (ImportError, OSError, PermissionError, ValueError):
        return None


class _Pending:
    """One submitted request on its way to ``on_result``."""

    __slots__ = ("request", "key", "result", "handle", "leader")

    def __init__(self, request: CheckRequest, key: str) -> None:
        self.request = request
        self.key = key
        #: a cache hit or a finished fresh run
        self.result: Optional[CheckResult] = None
        #: the pool's AsyncResult while the run is in flight
        self.handle = None
        #: the pending fresh run this duplicate replays
        self.leader: Optional[_Pending] = None


def _replay(leader: CheckResult, name: str) -> CheckResult:
    """A coalesced duplicate: a copy of the leader's fresh run."""
    copy = CheckResult.from_dict(leader.to_dict())
    copy.name = name
    copy.wall_seconds = 0.0  # the duplicate cost the sweep nothing
    copy.cache_tier = "coalesced"  # keep it out of the analyzed count
    return copy


def stream_batch(
    requests: Iterable[CheckRequest],
    *,
    jobs: int = 1,
    cache: Optional[Cache] = None,
    on_result: Optional[Callable[[CheckResult], None]] = None,
    window: Optional[int] = None,
) -> StreamStats:
    """Sweep a lazy request stream under a bounded in-flight window.

    ``on_result`` observes each :class:`CheckResult` once, in submission
    order, before it is discarded — the linker's ``add`` hook, the CLI's
    renderer, :func:`run_batch`'s collector.  Exceptions from the worker
    layer never surface here: :func:`run_request` folds them into
    ``result.failure``.
    """
    started = time.perf_counter()
    if jobs <= 0:
        jobs = default_jobs()
    window = max(1, window if window is not None else default_window(jobs))
    stats = StreamStats(jobs=jobs)
    evictions_before = getattr(cache, "evictions", 0)
    tracer = current_tracer()

    pending: deque[_Pending] = deque()
    waiting: list[_Pending] = []  # misses not yet run or submitted
    leaders: dict[str, _Pending] = {}  # key -> pending fresh run
    pool = None
    parallel = jobs > 1

    def submit() -> None:
        nonlocal pool, parallel
        if pool is None and parallel and len(waiting) > 1:
            pool = _start_pool(min(jobs, len(waiting)))
            parallel = pool is not None
        for entry in waiting:
            if pool is not None:
                entry.handle = pool.apply_async(
                    run_request, (entry.request, entry.key)
                )
            else:
                entry.result = run_request(entry.request, entry.key)
        waiting.clear()

    def drain() -> None:
        entry = pending.popleft()
        if waiting and waiting[0] is entry:
            submit()  # the head needs its run: hand over every waiting miss
        if entry.handle is not None:
            entry.result = entry.handle.get()
            entry.handle = None
        result = entry.result
        if entry.leader is not None:
            result = _replay(entry.leader.result, entry.request.name)
        elif not result.from_cache:
            if leaders.get(entry.key) is entry:
                del leaders[entry.key]
            if cache is not None:
                cache.store(entry.key, result)
            if tracer is not None and result.trace_events:
                # worker-process spans join the parent timeline once
                tracer.absorb(result.trace_events)
                result.trace_events = None
            observe_unit(entry.request.dialect, result.wall_seconds, fresh=True)
        stats.absorb(result)
        if on_result is not None:
            on_result(result)

    try:
        for request in requests:
            entry = _Pending(request, "")
            if cache is not None:
                probe_started = time.perf_counter()
                entry.key = request.cache_key()
                cached = cache.load(entry.key)
                if cached is not None:
                    cached.name = request.name  # cache files are key-addressed
                    # a hit's wall time is what the sweep actually paid:
                    # the probe — recorded on both fields, because a
                    # replayed entry arrives with the *original* run's
                    # wall_seconds while probe_seconds is the only
                    # always-fresh, always-nonzero cost of serving it
                    probe = time.perf_counter() - probe_started
                    cached.wall_seconds = probe
                    cached.probe_seconds = probe
                    count_cache(cached.cache_tier, hit=True)
                    observe_unit(request.dialect, probe, fresh=False)
                    entry.result = cached
                else:
                    count_cache("", hit=False)
            if entry.result is None:
                # "" (cacheless) is never a leader: without a content
                # hash there is no proof two requests are the same
                entry.leader = leaders.get(entry.key)
                if entry.leader is None:
                    if entry.key:
                        leaders[entry.key] = entry
                    waiting.append(entry)
                    if pool is not None:
                        submit()  # keep a running pool fed
            pending.append(entry)
            observe_stream_window(len(pending))
            while len(pending) >= window:
                drain()
        while pending:
            drain()
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    stats.elapsed_seconds = time.perf_counter() - started
    stats.cache_evictions = getattr(cache, "evictions", 0) - evictions_before
    return stats
