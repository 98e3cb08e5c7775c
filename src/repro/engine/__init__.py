"""Batch-analysis engine: jobs, the sweep loop, caching, and incrementality.

Turns the single-shot two-phase pipeline into a scalable driver: translation
units become :class:`CheckRequest` jobs, and one sweep loop
(:func:`stream_batch`) probes a content-hash :class:`ResultCache`, coalesces
duplicates, fans the misses out across a worker pool, and hands each result
on in submission order.  :func:`run_batch` collects that loop into one
Figure-9-style :class:`BatchReport`.  On top of that,
:class:`IncrementalEngine` keeps a corpus resident with a dependency graph
and an in-memory result tier, so the analysis service (:mod:`repro.server`)
re-checks only what an edit affected.
"""

from .. import _lazy_exports

#: public name -> the submodule defining it, imported on first access
#: (PEP 562): a one-shot check never loads the incremental engine
_EXPORTS = {
    "DEFAULT_CACHE_DIR": "..defaults",
    "DEFAULT_MAX_ENTRIES": "..defaults",
    "MemoryCache": ".cache",
    "NullCache": ".cache",
    "ResultCache": ".cache",
    "TieredCache": ".cache",
    "DependencyGraph": ".incremental",
    "IncrementalEngine": ".incremental",
    "IncrementalReport": ".incremental",
    "CACHE_SCHEMA_VERSION": ".jobs",
    "BatchReport": ".jobs",
    "CheckRequest": ".jobs",
    "CheckResult": ".jobs",
    "StreamStats": ".jobs",
    "options_fingerprint": ".jobs",
    "render_unit": ".jobs",
    "repository_fingerprint": ".jobs",
    "default_jobs": ".scheduler",
    "run_batch": ".scheduler",
    "stream_batch": ".stream",
    "analyze_request": ".worker",
    "run_request": ".worker",
}
__getattr__ = _lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
