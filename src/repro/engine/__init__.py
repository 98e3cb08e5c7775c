"""Batch-analysis engine: jobs, scheduling, caching, and incrementality.

Turns the single-shot two-phase pipeline into a scalable driver: translation
units become :class:`CheckRequest` jobs, a scheduler fans them out across a
worker pool, a content-hash :class:`ResultCache` skips unchanged units, and
the per-unit outcomes merge into one Figure-9-style :class:`BatchReport`.
On top of that, :class:`IncrementalEngine` keeps a corpus resident with a
dependency graph and an in-memory result tier, so the analysis service
(:mod:`repro.server`) re-checks only what an edit affected.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    DEFAULT_MAX_ENTRIES,
    MemoryCache,
    NullCache,
    ResultCache,
    TieredCache,
)
from .incremental import (
    DependencyGraph,
    IncrementalEngine,
    IncrementalReport,
)
from .jobs import (
    CACHE_SCHEMA_VERSION,
    BatchReport,
    CheckRequest,
    CheckResult,
    options_fingerprint,
    render_unit,
    repository_fingerprint,
)
from .scheduler import default_jobs, run_batch
from .stream import StreamStats, stream_batch
from .worker import analyze_request, run_request

__all__ = [
    "BatchReport",
    "CACHE_SCHEMA_VERSION",
    "CheckRequest",
    "CheckResult",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_ENTRIES",
    "DependencyGraph",
    "IncrementalEngine",
    "IncrementalReport",
    "MemoryCache",
    "NullCache",
    "ResultCache",
    "StreamStats",
    "TieredCache",
    "analyze_request",
    "default_jobs",
    "options_fingerprint",
    "render_unit",
    "repository_fingerprint",
    "run_batch",
    "run_request",
    "stream_batch",
]
