"""Concurrent cache access and LRU growth-cap semantics.

The satellite contract: two schedulers sharing one ``--cache-dir`` must
not corrupt or double-write entries, and the cache must not grow without
bound (``max_entries`` LRU cap with eviction accounting).
"""

import json
import threading

import pytest

from repro.core.exprs import Options
from repro.engine import (
    CACHE_SCHEMA_VERSION,
    CheckRequest,
    CheckResult,
    MemoryCache,
    ResultCache,
    run_batch,
)
from repro.source import SourceFile

ML = 'type t = A of int | B\nexternal get : t -> int = "ml_get"\n'

CLEAN_C = """\
value ml_get(value x)
{
    if (Is_long(x)) return Val_int(0);
    return Field(x, 0);
}
"""


def corpus(count):
    """``count`` distinct single-unit requests over a shared host side."""
    return [
        CheckRequest(
            name=f"unit{i:02}.c",
            c_sources=(SourceFile(f"unit{i:02}.c", CLEAN_C),),
            ocaml_sources=(SourceFile("lib.ml", ML),),
            options=Options(),
        )
        for i in range(count)
    ]


def result(name="u.c", key="k"):
    return CheckResult(name=name, cache_key=key)


class TestConcurrentSchedulers:
    def test_two_threads_share_one_cache_dir(self, tmp_path):
        """Racing schedulers must produce valid entries and equal reports."""
        requests = corpus(6)
        reports = [None, None]
        errors = []

        def sweep(slot):
            try:
                cache = ResultCache(tmp_path / "shared")
                reports[slot] = run_batch(requests, cache=cache)
            except Exception as exc:  # noqa: BLE001 - surfaced via the list
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert reports[0].tally() == reports[1].tally()
        # exactly one entry per unit: concurrent stores collapsed, no
        # double-writes under distinct names
        entries = sorted((tmp_path / "shared").glob("objects/*/*.json"))
        assert len(entries) == len(requests)
        for path in entries:
            data = json.loads(path.read_text())  # every file parses whole
            assert data["schema_version"] == CACHE_SCHEMA_VERSION
        assert not list((tmp_path / "shared").glob("objects/*/.tmp-*"))

    def test_store_race_leaves_readable_winner(self, tmp_path):
        """Many writers to one key: last write wins, file never torn."""
        cache = ResultCache(tmp_path)
        key = "deadbeef" * 8
        writers = [
            threading.Thread(
                target=cache.store, args=(key, result(name=f"w{i}.c", key=key))
            )
            for i in range(16)
        ]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        loaded = ResultCache(tmp_path).load(key)
        assert loaded is not None
        assert loaded.name.startswith("w")

    def test_concurrent_eviction_never_raises(self, tmp_path):
        """Two capped caches evicting the same directory race unlink()."""
        caches = [
            ResultCache(tmp_path, max_entries=4),
            ResultCache(tmp_path, max_entries=4),
        ]

        def hammer(cache, base):
            for i in range(24):
                cache.store(f"{base}{i:056}", result(key=f"{base}{i}"))

        threads = [
            threading.Thread(target=hammer, args=(cache, str(n)))
            for n, cache in enumerate(caches)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(caches[0]) <= 4


class TestResultCacheLRUCap:
    def test_cap_bounds_entry_count(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        for i in range(10):
            cache.store(f"{i:064}", result(key=str(i)))
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_uncapped_cache_keeps_everything(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=None)
        for i in range(10):
            cache.store(f"{i:064}", result(key=str(i)))
        assert len(cache) == 10 and cache.evictions == 0

    def test_eviction_is_least_recently_used(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path, max_entries=2)
        old, hot, fresh = "a" * 64, "b" * 64, "c" * 64
        cache.store(old, result(key=old))
        cache.store(hot, result(key=hot))
        # age both, then touch `hot` via a load so it becomes recent
        stale = time.time() - 60
        for key in (old, hot):
            path = tmp_path / "objects" / key[:2] / f"{key}.json"
            os.utime(path, (stale, stale))
        assert cache.load(hot) is not None
        cache.store(fresh, result(key=fresh))
        assert cache.load(old) is None  # evicted: least recently used
        assert cache.load(hot) is not None
        assert cache.load(fresh) is not None

    def test_batch_report_carries_eviction_count(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        report = run_batch(corpus(5), cache=cache)
        assert report.cache_evictions == 3
        assert report.to_dict()["cache"]["evictions"] == 3
        assert "evicted" in report.render()


class TestMemoryCacheLRU:
    def test_cap_and_eviction_order(self):
        cache = MemoryCache(max_entries=2)
        cache.store("a", result(key="a"))
        cache.store("b", result(key="b"))
        assert cache.load("a") is not None  # refresh recency
        cache.store("c", result(key="c"))
        assert cache.load("b") is None  # the stale entry went
        assert cache.load("a") is not None
        assert cache.evictions == 1

    def test_loaded_results_are_isolated_copies(self):
        cache = MemoryCache()
        cache.store("k", result(name="u.c", key="k"))
        first = cache.load("k")
        first.name = "mutated.c"
        assert cache.load("k").name == "u.c"

    def test_failures_never_stored(self):
        cache = MemoryCache()
        broken = result()
        broken.failure = "ParseError: boom"
        cache.store("k", broken)
        assert cache.load("k") is None
        assert len(cache) == 0


@pytest.mark.parametrize("max_entries", [0, 1])
def test_tiny_caps_still_functional(tmp_path, max_entries):
    cache = ResultCache(tmp_path, max_entries=max_entries)
    report = run_batch(corpus(3), cache=cache)
    assert len(report.results) == 3
    assert len(cache) <= max_entries
