"""Request coalescing: in-flight sharing, the revision memo, and stats."""

import threading

from repro.server.coalesce import CheckCoalescer, InflightEntry


class TestProbe:
    def test_unknown_key_returns_none_and_counts_nothing(self):
        coalescer = CheckCoalescer()
        assert coalescer.probe(("k", 0)) is None
        assert coalescer.stats()["requests"] == 0

    def test_memo_hit_returns_fragment(self):
        coalescer = CheckCoalescer()
        role, entry = coalescer.begin(("k", 0))
        coalescer.resolve(entry, '{"x":1}')
        assert coalescer.probe(("k", 0)) == '{"x":1}'
        stats = coalescer.stats()
        assert stats["coalesced_memo"] == 1
        assert stats["computed"] == 1

    def test_revision_change_is_a_new_key(self):
        coalescer = CheckCoalescer()
        role, entry = coalescer.begin(("k", 0))
        coalescer.resolve(entry, '{"x":1}')
        assert coalescer.probe(("k", 1)) is None

    def test_inflight_probe_returns_the_entry(self):
        coalescer = CheckCoalescer()
        _, entry = coalescer.begin(("k", 0))
        assert coalescer.probe(("k", 0)) is entry
        assert coalescer.stats()["coalesced_inflight"] == 1


class TestBeginResolve:
    def test_first_begin_is_leader_second_is_follower(self):
        coalescer = CheckCoalescer()
        role_a, entry_a = coalescer.begin(("k", 0))
        role_b, entry_b = coalescer.begin(("k", 0))
        assert (role_a, role_b) == ("leader", "follower")
        assert entry_a is entry_b

    def test_followers_receive_the_leaders_fragment(self):
        coalescer = CheckCoalescer()
        _, entry = coalescer.begin(("k", 0))
        results = []

        def wait():
            probed = coalescer.probe(("k", 0))
            assert isinstance(probed, InflightEntry)
            results.append(probed.future.result(timeout=10))

        threads = [threading.Thread(target=wait) for _ in range(4)]
        for thread in threads:
            thread.start()
        coalescer.resolve(entry, '{"shared":true}')
        for thread in threads:
            thread.join(timeout=10)
        assert results == ['{"shared":true}'] * 4

    def test_failure_propagates_and_memoizes_nothing(self):
        coalescer = CheckCoalescer()
        _, entry = coalescer.begin(("k", 0))
        coalescer.fail(entry, RuntimeError("boom"))
        try:
            entry.future.result(timeout=1)
            raise AssertionError("expected the leader's failure")
        except RuntimeError:
            pass
        # the failed key is retryable: next begin is a fresh leader
        role, _ = coalescer.begin(("k", 0))
        assert role == "leader"

    def test_resolved_entry_leaves_inflight(self):
        coalescer = CheckCoalescer()
        _, entry = coalescer.begin(("k", 0))
        coalescer.resolve(entry, "{}")
        probed = coalescer.probe(("k", 0))
        assert probed == "{}"  # memo, not the dead in-flight entry


class TestMemoEviction:
    def test_memo_is_lru_bounded(self):
        coalescer = CheckCoalescer(memo_entries=2)
        for index in range(3):
            _, entry = coalescer.begin(("k", index))
            coalescer.resolve(entry, f'{{"v":{index}}}')
        assert coalescer.probe(("k", 0)) is None  # evicted
        assert coalescer.probe(("k", 2)) == '{"v":2}'


class TestMemoRevisions:
    def test_filing_under_a_newer_revision_drops_older_ones(self):
        coalescer = CheckCoalescer()
        for digest in ("plain", "linked"):
            _, entry = coalescer.begin((digest, 1))
            coalescer.resolve(entry, f'{{"{digest}":1}}')
        assert coalescer.stats()["memo_entries"] == 2
        coalescer.remember(("plain", 2), '{"plain":2}')
        # revisions only grow: nothing can key on revision 1 again
        assert coalescer.stats()["memo_entries"] == 1
        assert coalescer.probe(("linked", 1)) is None
        assert coalescer.probe(("plain", 2)) == '{"plain":2}'

    def test_a_superseded_revision_is_served_but_not_filed(self):
        coalescer = CheckCoalescer()
        coalescer.remember(("plain", 3), '{"v":3}')
        _, entry = coalescer.begin(("plain", 2))  # keyed before a bump
        coalescer.resolve(entry, '{"v":2}')
        assert entry.future.result(timeout=1) == '{"v":2}'
        assert coalescer.probe(("plain", 2)) is None
        assert coalescer.probe(("plain", 3)) == '{"v":3}'
        assert coalescer.stats()["memo_entries"] == 1


class TestStats:
    def test_dedup_ratio_counts_shared_requests(self):
        coalescer = CheckCoalescer()
        assert coalescer.dedup_ratio() == 0.0
        _, entry = coalescer.begin(("k", 0))
        coalescer.resolve(entry, "{}")
        for _ in range(9):
            assert coalescer.probe(("k", 0)) == "{}"
        assert coalescer.dedup_ratio() == 0.9
        stats = coalescer.stats()
        assert stats["requests"] == 10
        assert stats["computed"] == 1
        assert stats["dedup_ratio"] == 0.9
