"""Defaults the CLI prints in its ``--help``, in a module that imports
nothing, so building the parser loads neither the cache nor the daemon.

:mod:`repro.engine` and :mod:`repro.server` re-export the names that
belong to them.
"""

#: the result cache's directory when ``--cache-dir`` is not given
DEFAULT_CACHE_DIR = ".mlffi-cache"

#: Default LRU entry cap for both the disk and memory tiers.
DEFAULT_MAX_ENTRIES = 10_000

#: analysis worker threads of the async TCP daemon
DEFAULT_WORKERS = 4
#: computations allowed to wait beyond the worker threads before the
#: daemon starts shedding
DEFAULT_MAX_QUEUE = 64
