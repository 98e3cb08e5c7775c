"""Precomputed seed artifacts and the one seed-memo invalidation point.

Every dialect carries per-process seed state that is identical across
analysis runs: the runtime entry-point tables (``builtin_entries``), the
lowering's return/parameter tables, the parse hints, the OCaml stdlib
declarations — and, far more expensively, the *parsed host interface*
(the OCaml :class:`~repro.ocamlfront.repository.TypeRepository`, the Rust
:class:`~repro.rustffi.parser.RustInterface`) memoized by content
fingerprint.

This module centralizes both:

* :func:`seed_table` memoizes the small tables.  Every table lives in
  one process-wide store keyed by a stable name and is built by its own
  builder once per process (a few milliseconds per dialect, no more than
  unpickling it would cost), so tables never go to disk: unpickled
  interned terms are not the canonical copies, so the unifier's
  identity short-cut would miss and ``unification_steps`` would change.
  :func:`clear_seed_memos` is the *single* invalidation point — it drops
  every seed table, every host-interface memo, and the hash-consing
  caches in one call.
* :class:`HostSeedMemo` is the shared host-interface memo and the one
  artifact kind on disk: a miss first tries the seed artifact for that
  content fingerprint (a pickle written atomically by a previous process
  or by ``mlffi-check warmup``), and only then rebuilds — writing the
  artifact through on first use so the *next* process loads instead of
  re-parsing.  Loading a parsed host interface is 5–10x cheaper than
  re-deriving it, which is the per-worker spawn cost a sweep's
  worker pool or the async daemon would otherwise pay.
* Artifacts are versioned: every file records :data:`SEED_SCHEMA_VERSION`
  and the :func:`registry_fingerprint` of the producing process (cache
  schema, package version, Python version, registered dialects).  A
  stale, corrupt, truncated, or foreign-revision artifact is never
  trusted — the loader falls back to rebuild and overwrites it.

Artifacts live under ``~/.cache/mlffi/seeds`` (override with
``MLFFI_SEED_DIR``; disable the tier entirely with
``MLFFI_SEED_ARTIFACTS=0``).  Concurrent warmup is safe: writers stage to
a unique temp file and ``os.replace`` it into place, so readers see
either the old artifact or the new one, never a torn write.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Optional, TypeVar

T = TypeVar("T")

#: Bump when the artifact envelope or payload semantics change; stale
#: versions are rebuilt, never migrated.
SEED_SCHEMA_VERSION = 2

SEED_DIR_ENV = "MLFFI_SEED_DIR"
SEED_ARTIFACTS_ENV = "MLFFI_SEED_ARTIFACTS"

#: Per-directory artifact cap: warmup prunes the oldest files beyond it
#: (the artifact is a cache, not a registry — dropping one only costs the
#: next process a rebuild).
MAX_ARTIFACTS = 512

#: In-process host-interface memo bound, matching the per-dialect limit
#: the dialects used before centralization.
HOST_MEMO_LIMIT = 32


def artifacts_enabled() -> bool:
    """Whether the on-disk artifact tier is active (default: yes)."""
    return os.environ.get(SEED_ARTIFACTS_ENV, "").strip() not in (
        "0",
        "off",
        "false",
    )


def seed_dir() -> Path:
    """Where artifacts live; ``MLFFI_SEED_DIR`` overrides the default."""
    override = os.environ.get(SEED_DIR_ENV, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "mlffi" / "seeds"


def registry_fingerprint() -> str:
    """The revision key every artifact is bound to.

    Covers everything that can change what a seed *means*: the artifact
    schema, the engine's cache schema (analysis semantics), the package
    version, the interpreter, and the registered dialect set —
    a third-party dialect registration changes the fingerprint, so its
    artifacts can never leak into a stock deployment or vice versa.
    """
    from . import __version__
    from .boundary import available_dialects
    from .engine.jobs import CACHE_SCHEMA_VERSION

    payload = json.dumps(
        {
            "seed_schema": SEED_SCHEMA_VERSION,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "python": "%d.%d" % sys.version_info[:2],
            "dialects": list(available_dialects()),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the central seed-table store (one invalidation point)
# ---------------------------------------------------------------------------

_TABLES: dict[str, Any] = {}
_BUILDERS: dict[str, Callable[[], Any]] = {}
_HOST_MEMOS: dict[str, "HostSeedMemo"] = {}
_LOCK = threading.RLock()

#: Process-wide counters surfaced by the server's ``status`` RPC.
_STATS = {
    "table_builds": 0,
    "host_builds": 0,
    "artifact_loads": 0,
    "artifact_stores": 0,
    "artifact_rejects": 0,
}


def seed_table(key: str) -> Callable[[Callable[[], T]], Callable[[], T]]:
    """Register + memoize one seed-table builder under a stable name.

    The wrapped function takes no arguments and returns the shared
    table, built on first call and kept in the central store where
    :func:`clear_seed_memos` can drop it.  A ``cache_clear`` attribute
    drops just this table.
    """

    def decorate(build: Callable[[], T]) -> Callable[[], T]:
        with _LOCK:
            if key in _BUILDERS:
                raise ValueError(f"duplicate seed table `{key}`")
            _BUILDERS[key] = build

        def wrapper() -> T:
            try:
                return _TABLES[key]
            except KeyError:
                pass
            with _LOCK:
                if key not in _TABLES:
                    _TABLES[key] = build()
                    _STATS["table_builds"] += 1
                return _TABLES[key]

        wrapper.seed_key = key  # type: ignore[attr-defined]
        wrapper.cache_clear = (  # type: ignore[attr-defined]
            lambda: _TABLES.pop(key, None)
        )
        wrapper.__name__ = build.__name__
        wrapper.__doc__ = build.__doc__
        return wrapper

    return decorate


def registered_tables() -> tuple[str, ...]:
    """Stable names of every registered seed table (forces no builds)."""
    return tuple(sorted(_BUILDERS))


def build_all_tables() -> dict[str, Any]:
    """Force-build every registered table and return the live store.

    Bootstraps the dialect registry first: registration imports the seed
    modules, and importing a seed module is what registers its tables.
    """
    from .boundary import available_dialects, get_dialect

    for name in available_dialects():
        get_dialect(name)
    for key, build in list(_BUILDERS.items()):
        if key not in _TABLES:
            with _LOCK:
                if key not in _TABLES:
                    _TABLES[key] = build()
                    _STATS["table_builds"] += 1
    return dict(_TABLES)


def clear_seed_memos() -> None:
    """THE seed invalidation point.

    Drops every centrally-memoized seed table, every host-interface
    memo (all dialects), and the hash-consing caches.  After this call a
    process is seed-cold: the next analysis rebuilds its tables (and
    artifact-loads or rebuilds its host interfaces), exactly like a
    fresh worker.
    """
    from .core.intern import clear_intern_caches

    with _LOCK:
        _TABLES.clear()
        for memo in _HOST_MEMOS.values():
            memo._entries.clear()
    clear_intern_caches()


def seed_stats() -> dict:
    """Counters + occupancy for the ``status`` RPC and tests."""
    return {
        **_STATS,
        "tables": len(_TABLES),
        "host_memos": {
            name: len(memo._entries) for name, memo in _HOST_MEMOS.items()
        },
        "artifacts_enabled": artifacts_enabled(),
    }


# ---------------------------------------------------------------------------
# artifact files
# ---------------------------------------------------------------------------


def _artifact_path(kind: str, fingerprint: str, registry: str) -> Path:
    return seed_dir() / f"{registry[:16]}-{kind}-{fingerprint[:24]}.seed"


def _write_artifact(path: Path, envelope: dict) -> bool:
    """Atomic best-effort write: stage to a unique temp file, then
    ``os.replace``.  Two processes warming concurrently both succeed;
    the loser's bytes simply win the rename race, and both wrote the
    same logical content.  Failures (read-only cache dir, full disk,
    unpicklable payload) are absorbed — the artifact is an optimization.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, staged = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".seed"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(envelope, handle, protocol=5)
            os.replace(staged, path)
        except BaseException:
            try:
                os.unlink(staged)
            except OSError:
                pass
            raise
    except Exception:
        return False
    _STATS["artifact_stores"] += 1
    return True


def _read_artifact(
    path: Path, kind: str, fingerprint: str, registry: str
) -> Optional[Any]:
    """Load + validate one artifact; ``None`` means rebuild.

    Every failure mode an on-disk cache can exhibit lands here —
    truncated pickle, garbage bytes, a stale schema or registry
    fingerprint, classes that no longer exist — and every one of them is
    an ordinary miss, never a crash.
    """
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
    except FileNotFoundError:
        return None
    except Exception:
        _STATS["artifact_rejects"] += 1
        return None
    if not isinstance(envelope, dict):
        _STATS["artifact_rejects"] += 1
        return None
    if (
        envelope.get("seed_schema") != SEED_SCHEMA_VERSION
        or envelope.get("registry") != registry
        or envelope.get("kind") != kind
        or envelope.get("fingerprint") != fingerprint
        or "payload" not in envelope
    ):
        _STATS["artifact_rejects"] += 1
        return None
    _STATS["artifact_loads"] += 1
    return envelope["payload"]


def store_artifact(kind: str, fingerprint: str, payload: Any) -> bool:
    """Write one artifact under the current registry fingerprint."""
    if not artifacts_enabled():
        return False
    registry = registry_fingerprint()
    envelope = {
        "seed_schema": SEED_SCHEMA_VERSION,
        "registry": registry,
        "kind": kind,
        "fingerprint": fingerprint,
        "payload": payload,
    }
    return _write_artifact(
        _artifact_path(kind, fingerprint, registry), envelope
    )


def load_artifact(kind: str, fingerprint: str) -> Optional[Any]:
    """Load one artifact if present and trustworthy."""
    if not artifacts_enabled():
        return None
    registry = registry_fingerprint()
    return _read_artifact(
        _artifact_path(kind, fingerprint, registry),
        kind,
        fingerprint,
        registry,
    )


def prune_artifacts(limit: int = MAX_ARTIFACTS) -> int:
    """Evict the oldest artifacts beyond ``limit``; returns evictions."""
    directory = seed_dir()
    try:
        files = [
            entry
            for entry in directory.iterdir()
            if entry.name.endswith(".seed")
            and not entry.name.startswith(".")
        ]
    except OSError:
        return 0
    if len(files) <= limit:
        return 0
    files.sort(key=lambda entry: entry.stat().st_mtime)
    evicted = 0
    for stale in files[: len(files) - limit]:
        try:
            stale.unlink()
            evicted += 1
        except OSError:
            pass
    return evicted


# ---------------------------------------------------------------------------
# the shared host-interface memo (memory over artifact over rebuild)
# ---------------------------------------------------------------------------


class HostSeedMemo:
    """Per-dialect memo for parsed host interfaces, artifact-backed.

    ``get`` resolves a content fingerprint through three tiers: the
    in-process memo, the on-disk artifact, and the dialect's builder —
    writing through to the artifact on a build so sibling and future
    processes load instead of re-deriving.  The memo is bounded the same
    way the per-dialect dicts it replaces were: a full table is cleared
    wholesale (it is an optimization, not a registry).
    """

    def __init__(self, dialect: str, limit: int = HOST_MEMO_LIMIT):
        self.dialect = dialect
        self.limit = limit
        self._entries: dict[str, Any] = {}
        self._lock = threading.Lock()
        _HOST_MEMOS[dialect] = self

    def get(self, fingerprint: str, build: Callable[[], T]) -> T:
        entry = self._entries.get(fingerprint)
        if entry is not None:
            return entry
        kind = f"host-{self.dialect}"
        loaded = load_artifact(kind, fingerprint)
        if loaded is None:
            with _LOCK:
                _STATS["host_builds"] += 1
            loaded = build()
            store_artifact(kind, fingerprint, loaded)
        with self._lock:
            if len(self._entries) >= self.limit:
                self._entries.clear()
            self._entries[fingerprint] = loaded
        return loaded

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


# ---------------------------------------------------------------------------
# warmup (the CLI's `mlffi-check warmup` and build-on-first-use)
# ---------------------------------------------------------------------------


def warmup_static() -> dict:
    """Build every registered seed table in this process.

    The tables are cheap to build and are never stored; this only loads
    every dialect and reports how many tables there are.
    """
    return {"tables": len(build_all_tables())}


def warmup_hosts(
    dialect_name: str, host_sources: tuple
) -> dict:
    """Precompute the host-interface artifact for one host-source set.

    ``host_sources`` is the tuple of :class:`~repro.source.SourceFile`
    the dialect would receive on a request; dialects without a host side
    (pyext, jni) report zero artifacts.
    """
    from .boundary import get_dialect
    from .engine.jobs import CheckRequest, repository_fingerprint

    dialect = get_dialect(dialect_name)
    if not host_sources:
        return {"hosts": 0, "fingerprint": None}
    fingerprint = repository_fingerprint(host_sources)
    request = CheckRequest(
        name="<warmup>",
        c_sources=(),
        ocaml_sources=tuple(host_sources),
        dialect=dialect_name,
    )
    builder = getattr(dialect, "host_interface_for", None)
    if builder is None:
        return {"hosts": 0, "fingerprint": None}
    builder(request)  # populates the memo + writes the artifact
    return {"hosts": len(host_sources), "fingerprint": fingerprint}
