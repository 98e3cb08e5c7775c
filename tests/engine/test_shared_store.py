"""The disk result tier as a shared store: round trips and the LRU cap.

``ResultCache`` is the one disk tier, and any number of processes may
share its directory; these cases pin the store contract it inherited
(sharded objects, schema-checked loads, failures never stored).  The
layout and cross-process cases live in ``test_cache.py``.
"""

import json

from repro.engine import CACHE_SCHEMA_VERSION, CheckResult, ResultCache


def make_result(name="unit.c", key="k" * 64):
    return CheckResult(name=name, cache_key=key, unification_steps=7)


class TestRoundTrip:
    def test_miss_on_empty_store(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        assert store.load("a" * 64) is None
        assert store.stats()["misses"] == 1

    def test_failure_results_are_never_stored(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        failed = make_result()
        failed.failure = "worker exploded"
        store.store("a" * 64, failed)
        assert store.load("a" * 64) is None

    def test_stale_schema_version_is_a_miss(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        key = "a" * 64
        store.store(key, make_result())
        path = tmp_path / "store" / "objects" / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["schema_version"] = CACHE_SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload))
        assert store.load(key) is None

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        key = "a" * 64
        store.store(key, make_result())
        path = tmp_path / "store" / "objects" / key[:2] / f"{key}.json"
        path.write_text("{torn write")
        assert store.load(key) is None

    def test_clear_empties_the_store(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        for index in range(3):
            store.store(f"{index:02}" + "a" * 62, make_result())
        assert len(store) == 3
        assert store.clear() == 3
        assert len(store) == 0


class TestEviction:
    def test_lru_cap_is_enforced(self, tmp_path):
        store = ResultCache(tmp_path / "store", max_entries=2)
        for index in range(4):
            store.store(f"{index:02}" + "a" * 62, make_result())
        assert len(store) <= 2
        assert store.evictions >= 2

    def test_uncapped_store_keeps_everything(self, tmp_path):
        store = ResultCache(tmp_path / "store", max_entries=None)
        for index in range(5):
            store.store(f"{index:02}" + "a" * 62, make_result())
        assert len(store) == 5
