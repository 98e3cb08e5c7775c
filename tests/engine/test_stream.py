"""The bounded-memory streaming scheduler (`repro.engine.stream`)."""

import pytest

from repro.engine import (
    MemoryCache,
    render_unit,
    run_batch,
    stream_batch,
    CheckRequest,
)
from repro.engine.stream import StreamStats, default_window
from repro.source import SourceFile

ML = 'external get : int -> int = "ml_get"\n'
GOOD_C = "value ml_get(value x) { return Val_int(Int_val(x) + 1); }\n"
BAD_C = "value ml_bad(value x) { return Val_int(x); }\n"
BAD_ML = 'external bad : int -> int = "ml_bad"\n'


def request(name, c_text=GOOD_C, ml_text=ML):
    return CheckRequest(
        name=name,
        c_sources=(SourceFile(name, c_text),),
        ocaml_sources=(SourceFile("lib.ml", ml_text),),
        dialect="ocaml",
    )


def distinct_requests(count):
    # distinct symbol per unit so no content-hash layer collapses them
    return [
        request(
            f"u{i}.c",
            GOOD_C.replace("ml_get", f"ml_get{i}"),
            ML.replace("ml_get", f"ml_get{i}"),
        )
        for i in range(count)
    ]


class TestStreamBatch:
    def test_results_arrive_in_submission_order(self):
        requests = distinct_requests(6)
        seen = []
        stats = stream_batch(
            requests, jobs=1, on_result=lambda r: seen.append(r.name)
        )
        assert seen == [r.name for r in requests]
        assert stats.units == 6
        assert stats.analyzed == 6
        assert stats.cache_hits == 0

    def test_consumes_a_lazy_generator(self):
        pulled = []

        def generate():
            for req in distinct_requests(5):
                pulled.append(req.name)
                yield req

        stats = stream_batch(generate(), jobs=1, window=2)
        assert stats.units == 5
        assert len(pulled) == 5

    def test_window_bounds_in_flight_results(self):
        # with window=2 the stream may hold at most 2 undrained results;
        # by the time unit i is submitted, everything before i-2 must
        # already have been handed to on_result
        drained = []

        def generate():
            for i, req in enumerate(distinct_requests(8)):
                assert len(drained) >= i - 2, (i, drained)
                yield req

        stream_batch(
            generate(),
            jobs=1,
            window=2,
            on_result=lambda r: drained.append(r.name),
        )
        assert len(drained) == 8

    def test_diagnostics_match_run_batch_byte_for_byte(self):
        requests = distinct_requests(4) + [request("bad.c", BAD_C, BAD_ML)]
        batch = run_batch(requests, jobs=1, cache=None)
        batch_lines = [
            line for result in batch.results for line in render_unit(result)
        ]
        streamed_lines = []
        stream_batch(
            requests,
            jobs=1,
            on_result=lambda r: streamed_lines.extend(render_unit(r)),
        )
        assert streamed_lines == batch_lines

    def test_cache_hits_are_counted_and_renamed(self):
        cache = MemoryCache()
        requests = distinct_requests(3)
        first = stream_batch(requests, jobs=1, cache=cache)
        assert first.analyzed == 3
        names = []
        second = stream_batch(
            requests, jobs=1, cache=cache, on_result=lambda r: names.append(r.name)
        )
        assert second.cache_hits == 3
        assert second.analyzed == 0
        assert names == [r.name for r in requests]

    def test_parse_failure_is_absorbed_not_raised(self):
        stats = stream_batch(
            [request("broken.c", "value f( {", ML)], jobs=1
        )
        assert stats.failures == 1
        assert stats.units == 1

    def test_parallel_jobs_preserve_order_and_tally(self):
        requests = distinct_requests(6) + [request("bad.c", BAD_C, BAD_ML)]
        seen = []
        stats = stream_batch(
            requests, jobs=2, on_result=lambda r: seen.append(r.name)
        )
        assert seen == [r.name for r in requests]
        assert stats.jobs == 2
        assert stats.tally["errors"] == 1

    def test_parallel_run_stores_into_the_cache(self):
        cache = MemoryCache()
        requests = distinct_requests(5)
        stream_batch(requests, jobs=2, cache=cache)
        warm = stream_batch(requests, jobs=2, cache=cache)
        assert warm.cache_hits == 5


class TestStreamStats:
    def test_default_window_scales_with_jobs(self):
        assert default_window(1) == 4
        assert default_window(8) == 32

    def test_render_mirrors_the_batch_footer(self):
        stats = stream_batch(distinct_requests(2), jobs=1)
        text = stats.render()
        assert text.startswith("-- 2 unit(s):")
        assert "[0 cached, 2 analyzed, jobs=1]" in text

    def test_to_dict_shape(self):
        stats = StreamStats(jobs=3)
        data = stats.to_dict()
        assert data["jobs"] == 3
        assert data["cache"] == {"hits": 0}
        assert set(data["tally"]) == {
            "errors",
            "warnings",
            "false_positives",
            "imprecision",
        }


class _InlinePool:
    """A pool stand-in that runs work on submission, in this process."""

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def apply_async(self, fn, args):
        result = fn(*args)
        return type("Ready", (), {"get": lambda self: result})()

    def starmap(self, fn, iterable, chunksize=1):
        return [fn(*args) for args in iterable]

    def terminate(self):
        pass

    def join(self):
        pass


@pytest.fixture()
def pools(monkeypatch):
    """The worker counts of every pool a sweep starts."""
    import multiprocessing

    started = []

    class Context:
        def Pool(self, processes):
            started.append(processes)
            return _InlinePool(processes)

    monkeypatch.setattr(multiprocessing, "get_context", lambda *a: Context())
    return started


class TestPoolPolicy:
    def test_all_hit_stream_starts_no_pool(self, pools):
        cache = MemoryCache()
        requests = distinct_requests(3)
        stream_batch(requests, jobs=1, cache=cache)
        warm = stream_batch(requests, jobs=2, cache=cache)
        assert warm.cache_hits == 3
        assert pools == []

    def test_pool_is_no_wider_than_the_waiting_misses(self, pools):
        report = run_batch(distinct_requests(2), jobs=8, cache=MemoryCache())
        assert report.cache_misses == 2
        assert pools == [2]

    def test_warm_prefix_still_starts_the_pool(self, pools):
        # hits drain without submitting anything, so the cold misses
        # behind them are all waiting when the first reaches the head
        cache = MemoryCache()
        requests = distinct_requests(8)
        stream_batch(requests[:4], jobs=1, cache=cache)
        stats = stream_batch(requests, jobs=2, cache=cache, window=4)
        assert (stats.cache_hits, stats.analyzed) == (4, 4)
        assert pools == [2]

    def test_one_waiting_miss_runs_inline(self, pools):
        stats = stream_batch(distinct_requests(1), jobs=4)
        assert stats.analyzed == 1
        assert pools == []


class TestStreamCoalescing:
    def test_duplicate_of_a_pending_run_is_coalesced(self):
        import dataclasses

        base = request("a.c")
        alias = dataclasses.replace(base, name="alias.c")
        seen = []
        stats = stream_batch(
            [base, alias],
            jobs=1,
            cache=MemoryCache(),
            on_result=seen.append,
        )
        assert (stats.analyzed, stats.coalesced) == (1, 1)
        assert [r.cache_tier for r in seen] == ["", "coalesced"]
        assert seen[1].name == "alias.c"
        assert "1 coalesced" in stats.render()
