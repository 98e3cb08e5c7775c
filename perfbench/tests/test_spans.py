import json
import types

import pytest
from layers import import_seconds
from spans import Recorder, _covered, phase_totals


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("outer"):  # 0 .. 10
        clock.now = 1.0
        with rec.span("child"):  # 1 .. 3
            clock.now = 2.0
            with rec.span("grandchild"):  # 2 .. 2.5
                clock.now = 2.5
            clock.now = 3.0
        clock.now = 5.0
        with rec.span("child"):  # 5 .. 8
            clock.now = 8.0
        clock.now = 10.0
    return rec


def test_self_time_subtracts_direct_children_only():
    rec = _nested()
    assert rec.self_time("outer") == pytest.approx(10.0 - 2.0 - 3.0)
    # the grandchild is inside the first child, not a child of outer
    assert rec.self_time("child") == pytest.approx((2.0 - 0.5) + 3.0)
    assert rec.self_time("grandchild") == pytest.approx(0.5)


def test_self_times_add_up_to_the_root_duration():
    rec = _nested()
    total = sum(rec.self_time(name) for name in ("outer", "child", "grandchild"))
    assert total == pytest.approx(rec.total("outer"))


def test_covered_is_the_union_of_intervals():
    assert _covered([(1, 4), (3, 6)]) == 5
    assert _covered([(1, 2), (1, 2)]) == 1
    assert _covered([(5, 6), (1, 2), (1.5, 3)]) == 3
    assert _covered([]) == 0


def test_total_counts_recursive_calls_once():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("f"):
        clock.now = 1.0
        with rec.span("f"):
            clock.now = 3.0
        clock.now = 4.0
    assert rec.total("f") == pytest.approx(4.0)
    assert rec.calls("f") == 2


def test_total_where_filters_by_scope():
    rec = _nested()
    first_child = rec.find("child")
    inside = rec.within(first_child)
    assert rec.total("grandchild", where=inside) == pytest.approx(0.5)
    second = rec.spans[-1]
    assert rec.total("grandchild", where=rec.within(second)) == 0.0


def test_patch_records_and_restores():
    module = types.SimpleNamespace(work=lambda x: x * 2)
    original = module.work
    rec = Recorder()
    rec.patch(module, "work", "layer.work", lambda r, result, args: r.count("n", result))
    assert module.work(4) == 8
    assert rec.calls("layer.work") == 1
    assert rec.counts["n"] == 8
    rec.restore()
    assert module.work is original


def test_patch_on_a_class_wraps_the_method():
    class Thing:
        def run(self):
            return 7

    rec = Recorder()
    rec.patch(Thing, "run", "thing.run")
    assert Thing().run() == 7
    assert rec.calls("thing.run") == 1
    rec.restore()
    assert "traced" not in Thing.run.__qualname__


def test_chrome_export_keeps_parents(tmp_path):
    rec = _nested()
    path = tmp_path / "trace.json"
    rec.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "child", "grandchild", "child"]
    assert events[2]["args"]["parent"] == events[1]["args"]["id"]
    assert events[0]["dur"] == pytest.approx(10e6)
    totals = phase_totals(path)
    assert totals["child"] == pytest.approx(5.0)


def test_import_seconds_sums_top_level_package_imports():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       500 |       2000 |     repro.core",
        "import time:       300 |       4000 |   repro",
        "import time:       200 |       6000 | repro",
        "import time:        50 |       1500 | repro.cli",
        "import time:        10 |         10 | json",
    ])
    assert import_seconds(report) == pytest.approx((6000 + 1500) / 1e6)
