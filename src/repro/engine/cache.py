"""Result caches for the batch engine and the analysis service.

Three tiers share one ``load``/``store`` protocol (see
:class:`repro.engine.stream.Cache`):

* :class:`ResultCache` — the cold tier: one JSON file per cache key under a
  cache directory (default ``.mlffi-cache``), so results survive process
  restarts and are shared by every process pointed at the same directory
  (daemon replicas, batch sweeps, CI bots).  Growth is bounded by an LRU
  entry cap (``max_entries``, default 10k).
* :class:`MemoryCache` — the warm tier the persistent analysis service
  keeps in front of the cold one: an in-process LRU of JSON payloads.
  Entries round-trip through ``to_dict``/``from_dict`` so callers can
  mutate a loaded result without corrupting the stored copy.
* :class:`TieredCache` — memory over disk: loads probe memory first and
  promote disk hits, stores write through to both.

Keys come from :meth:`repro.engine.jobs.CheckRequest.cache_key`, which
digests the dialect, the C sources, the host-side repository fingerprint,
and the analysis options — so a hit is only possible when re-analyzing
would provably reproduce the stored diagnostics.

Disk layout under the cache directory::

    objects/<key[:2]>/<key>.json   one payload per cache key (sharded
                                   fan-out so no directory grows huge)
    index.log                      append-only journal of stored keys
    .lock                          advisory write lock

Concurrency contract:

* **readers never lock** — payloads are written to a temp file and
  ``os.replace``'d into place, so a reader sees either the old bytes,
  the new bytes, or a miss; never a torn file.
* **writers lock the journal** — the ``.lock`` file is held (``flock``
  where available, an ``O_EXCL`` spin lock otherwise) only while
  appending to ``index.log`` or evicting, so two processes can store
  concurrently without corrupting the entry count that drives the LRU
  cap.
* corrupt, stale (old ``CACHE_SCHEMA_VERSION``), or vanished entries
  are misses, never errors: the cache can be deleted wholesale at any
  time.

Hit/miss/eviction counters are per-process (each process observes its
own traffic); ``len()`` reflects the shared on-disk state.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Optional

from ..defaults import DEFAULT_MAX_ENTRIES
from .jobs import CACHE_SCHEMA_VERSION, CheckResult

try:  # POSIX: a real advisory lock
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None  # type: ignore[assignment]

#: how long a writer spins on the O_EXCL fallback lock before degrading
#: to lock-free operation (journal append stays atomic-ish via O_APPEND)
_FALLBACK_LOCK_TIMEOUT_S = 2.0


class ResultCache:
    """Content-addressed :class:`CheckResult` store shared by processes."""

    #: tier name surfaced in ``status``/``metrics`` breakdowns
    tier = "disk"

    def __init__(
        self,
        directory: str | os.PathLike,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ):
        self.directory = Path(directory)
        #: ``None`` disables the cap
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: journal lines observed at the first store plus appends since,
        #: so the store hot path never rescans; overwrites append too, so
        #: it over-approximates, and each eviction scan rebases it
        self._approx_count: Optional[int] = None

    # -- paths ----------------------------------------------------------------

    @property
    def _objects(self) -> Path:
        return self.directory / "objects"

    @property
    def _journal(self) -> Path:
        return self.directory / "index.log"

    @property
    def _lockfile(self) -> Path:
        return self.directory / ".lock"

    def _object_path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.json"

    # -- locking --------------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self) -> Iterator[bool]:
        """Hold the write lock; yields False when degraded to lock-free
        (lock unavailable on this platform or contended past the
        timeout, or the directory is missing) — callers proceed,
        accepting benign index races."""
        if fcntl is not None:
            try:
                fd = os.open(self._lockfile, os.O_CREAT | os.O_RDWR, 0o644)
            except OSError:
                yield False
                return
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield True
            finally:
                with contextlib.suppress(OSError):
                    fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)
            return
        # O_EXCL spin lock: portable, self-cleaning via the finally
        deadline = time.monotonic() + _FALLBACK_LOCK_TIMEOUT_S
        spin = self._lockfile.with_suffix(".spin")
        while True:
            try:
                fd = os.open(spin, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if time.monotonic() >= deadline:
                    yield False
                    return
                time.sleep(0.005)
            except OSError:
                yield False
                return
        try:
            yield True
        finally:
            os.close(fd)
            with contextlib.suppress(OSError):
                os.unlink(spin)

    # -- protocol -------------------------------------------------------------

    def load(self, key: str) -> Optional[CheckResult]:
        """Return the cached result for ``key``, or ``None`` on any miss."""
        path = self._object_path(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if data.get("schema_version") != CACHE_SCHEMA_VERSION:
            self.misses += 1
            return None
        try:
            result = CheckResult.from_dict(data["result"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        result.from_cache = True
        result.cache_tier = "disk"
        with contextlib.suppress(OSError):
            os.utime(path)  # recency: eviction spares keys any process hit
        return result

    def store(self, key: str, result: CheckResult) -> None:
        """Persist ``result`` under ``key``; failures degrade to no-op."""
        if result.failure is not None:
            return  # infrastructure failures must re-run next time
        payload = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "result": result.to_dict(),
        }
        path = self._object_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except OSError:
            return  # a read-only cache dir degrades to "no cache", not a crash
        with self._locked():
            try:
                with open(self._journal, "a") as journal:
                    journal.write(key + "\n")
            except OSError:
                return
            self._enforce_cap()

    # -- maintenance (caller holds the lock) -----------------------------------

    def _journal_count(self) -> int:
        try:
            with open(self._journal) as journal:
                return sum(1 for _ in journal)
        except OSError:
            return 0

    def _scan_objects(self) -> list[tuple[float, Path]]:
        try:
            return [
                (path.stat().st_mtime, path)
                # glob matches dotfiles, so skip in-flight ".tmp-*" spill
                # from concurrent writers: evicting one mid-write breaks
                # the writer's os.replace, and compaction must not write
                # temp-file stems into the journal as keys
                for path in self._objects.glob("*/*.json")
                if not path.name.startswith(".")
            ]
        except OSError:
            return []

    def _enforce_cap(self) -> None:
        """Evict least-recently-used entries once past the cap.

        The full scan only happens when the (cheaply maintained) count
        estimate crosses the cap, so a store normally costs one write
        and one journal append, not one scan."""
        if self.max_entries is None:
            return
        if self._approx_count is None:
            self._approx_count = self._journal_count()
        else:
            self._approx_count += 1
        if self._approx_count <= self.max_entries:
            return
        entries = self._scan_objects()
        excess = len(entries) - self.max_entries
        if excess > 0:
            entries.sort()  # oldest mtime (least recently touched) first
            for _mtime, path in entries[:excess]:
                with contextlib.suppress(OSError):
                    path.unlink()
                    self.evictions += 1
            entries = entries[excess:]
        # compact the journal to the survivors so the estimate stays honest
        with contextlib.suppress(OSError):
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-index-"
            )
            with os.fdopen(fd, "w") as handle:
                handle.writelines(path.stem + "\n" for _m, path in entries)
            os.replace(tmp_name, self._journal)
        self._approx_count = len(entries)

    # -- introspection --------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        with self._locked():
            for _mtime, path in self._scan_objects():
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
            with contextlib.suppress(OSError):
                self._journal.unlink()
            self._approx_count = None
        return removed

    def __len__(self) -> int:
        return len(self._scan_objects())

    def stats(self) -> dict:
        """Uniform tier statistics (no directory scan: stays cheap)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class MemoryCache:
    """In-process LRU tier: cache key -> JSON payload of a result.

    Payloads (not objects) are stored so a caller mutating a loaded
    :class:`CheckResult` — the scheduler rewrites ``name`` and
    ``wall_seconds`` on hits — can never corrupt the cached copy.
    """

    tier = "memory"

    def __init__(self, max_entries: Optional[int] = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[str, dict]" = OrderedDict()

    def load(self, key: str) -> Optional[CheckResult]:
        payload = self._entries.get(key)
        if payload is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        result = CheckResult.from_dict(payload)
        result.from_cache = True
        result.cache_tier = "memory"
        return result

    def store(self, key: str, result: CheckResult) -> None:
        if result.failure is not None:
            return
        self._entries[key] = result.to_dict()
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class TieredCache:
    """Memory over disk: the service's warm tier backed by the cold one.

    Loads probe memory first; disk hits are promoted into memory so the
    next probe stays in-process.  Stores write through to both tiers.
    """

    def __init__(self, memory: MemoryCache, cold) -> None:
        self.memory = memory
        self.cold = cold

    @property
    def hits(self) -> int:
        return self.memory.hits + getattr(self.cold, "hits", 0)

    @property
    def misses(self) -> int:
        # memory misses that fall through are counted by the cold tier
        return getattr(self.cold, "misses", 0)

    @property
    def evictions(self) -> int:
        return self.memory.evictions + getattr(self.cold, "evictions", 0)

    def load(self, key: str) -> Optional[CheckResult]:
        result = self.memory.load(key)
        if result is not None:
            return result
        result = self.cold.load(key)
        if result is not None:
            self.memory.store(key, result)
        return result

    def store(self, key: str, result: CheckResult) -> None:
        self.memory.store(key, result)
        self.cold.store(key, result)

    def stats(self) -> dict:
        cold_stats = (
            self.cold.stats()
            if hasattr(self.cold, "stats")
            else {
                "hits": getattr(self.cold, "hits", 0),
                "misses": getattr(self.cold, "misses", 0),
                "evictions": getattr(self.cold, "evictions", 0),
            }
        )
        return {"memory": self.memory.stats(), "cold": cold_stats}


class NullCache:
    """The ``--no-cache`` policy: every lookup misses, nothing is stored."""

    tier = "null"
    hits = 0
    evictions = 0

    def __init__(self) -> None:
        self.misses = 0

    def load(self, key: str) -> Optional[CheckResult]:
        self.misses += 1
        return None

    def store(self, key: str, result: CheckResult) -> None:
        pass

    def stats(self) -> dict:
        return {"hits": 0, "misses": self.misses, "evictions": 0}
