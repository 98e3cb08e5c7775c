"""The BENCH_PR<n>.json recorder: pairing, summaries and verdicts.

perfbench never runs here: ``record`` takes the runner as an argument and
these tests hand it canned results.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def rec():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 25,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ],
    "per_layer": [
        {"name": "core.check_s", "unit": "s", "better": "lower"},
        {"name": "engine.cache_hits", "unit": "count", "better": "higher"},
    ],
}


def result(pass_s=1.0, rss=100.0, correct=True, failed=0, attempted=10):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def traced_result(check_s=0.5, correct=True):
    return {
        "correct": correct,
        "attempted": 1,
        "failed": 0,
        "metrics": {"core.check_s": {"value": check_s, "unit": "s"}},
    }


class FakeRunner:
    """Canned perfbench: ``side_results(side, workload, seed)`` for the
    end-to-end runs; every call is logged."""

    def __init__(self, side_results=None, traced=None):
        self.calls = []
        self.side_results = side_results or (lambda side, w, seed: result())
        self.traced = traced or (lambda side: traced_result())

    def __call__(self, tree, workload, seed, trace):
        side = tree.name
        self.calls.append((side, workload, seed, trace))
        if trace:
            return self.traced(side)
        return self.side_results(side, workload, seed)


TREES = {"base": Path("/x/base"), "change": Path("/x/change")}


class TestSummarizeMetric:
    def test_identical_runs_are_unchanged(self, rec):
        row = rec.summarize_metric([(1.0, 1.0)] * 10, 0.25, "lower")
        assert row["verdict"] == "unchanged"
        assert row["ties"] == 10 and row["change_wins"] == 0

    def test_worse_beyond_the_bound_is_a_regression(self, rec):
        pairs = [(1.0 + i * 0.01, 1.3 + i * 0.01) for i in range(10)]
        row = rec.summarize_metric(pairs, 0.25, "lower")
        assert row["verdict"] == "regression"
        assert row["base_wins"] == 10

    def test_worse_within_the_bound_is_not_a_regression(self, rec):
        pairs = [(1.0 + i * 0.01, 1.2 + i * 0.01) for i in range(10)]
        row = rec.summarize_metric(pairs, 0.25, "lower")
        assert row["verdict"] == "unchanged"

    def test_higher_is_better_flips_the_direction(self, rec):
        pairs = [(100.0, 70.0)] * 10
        assert rec.summarize_metric(pairs, 0.25, "higher")["verdict"] == "regression"
        assert rec.summarize_metric(pairs, 0.25, "lower")["verdict"] == "gain"

    def test_gain_needs_nine_tenths_of_the_pairs(self, rec):
        wins = [(1.0 + i * 0.01, 0.8 + i * 0.01) for i in range(9)]
        assert rec.summarize_metric(wins + [(1.0, 1.0)], 0.25, "lower")[
            "verdict"] == "gain"
        row = rec.summarize_metric(wins[:8] + [(1.0, 1.0), (1.0, 1.1)], 0.25, "lower")
        assert row["change_wins"] == 8 and row["ties"] == 1
        assert row["verdict"] == "unchanged"

    def test_gain_needs_the_median_gap_beyond_the_base_spread(self, rec):
        # every pair is a win, but the base's quartiles are 1.0 apart
        pairs = [(1.0 + (i % 2) * 2.0, 0.95 + (i % 2) * 2.0) for i in range(10)]
        assert rec.summarize_metric(pairs, 5.0, "lower")["verdict"] == "unchanged"

    def test_spread_wider_than_the_bound_is_unresolved(self, rec):
        pairs = [(1.0 + (i % 2), 1.0 + ((i + 1) % 2)) for i in range(10)]
        row = rec.summarize_metric(pairs, 0.25, "lower")
        assert row["spread"] > 0.25
        assert row["verdict"] == "unresolved"

    def test_wide_spread_resolves_when_every_change_run_is_better(self, rec):
        pairs = [(10.0 + i, 1.0 + i * 0.5) for i in range(10)]
        row = rec.summarize_metric(pairs, 0.01, "lower")
        assert row["verdict"] == "gain"
        # every pair a win, but the gap is inside the base's own spread
        pairs = [(10.0 if i % 2 else 30.0, 9.9) for i in range(10)]
        row = rec.summarize_metric(pairs, 0.05, "lower")
        assert row["spread"] > 0.05 and row["change_wins"] == 10
        assert row["verdict"] == "unchanged"

    def test_quartiles_and_medians(self, rec):
        pairs = [(float(i), float(i)) for i in range(1, 11)]
        row = rec.summarize_metric(pairs, 0.25, "lower")
        assert row["base"]["median"] == 5.5
        assert row["base"]["q1"] == 3.25 and row["base"]["q3"] == 7.75


class TestRecord:
    def test_pairs_alternate_order_and_share_a_seed(self, rec):
        runner = FakeRunner()
        rec.record(SPEC, TREES, runner, log=lambda line: None)
        w1 = [call for call in runner.calls if call[1] == "w1"]
        assert len(w1) == 2 * rec.PAIRS + 2
        for index in range(rec.PAIRS):
            first, second = w1[2 * index], w1[2 * index + 1]
            assert first[2] == second[2] == index + 1
            assert first[3] == second[3] == 0
            expected = ("base", "change") if index % 2 == 0 else ("change", "base")
            assert (first[0], second[0]) == expected
        assert w1[-2:] == [("base", "w1", 1, 1), ("change", "w1", 1, 1)]

    def test_clean_runs_record_ok(self, rec):
        runner = FakeRunner(
            traced=lambda side: traced_result(0.5 if side == "base" else 0.4)
        )
        doc = rec.record(SPEC, TREES, runner, log=lambda line: None)
        assert doc["ok"] and doc["problems"] == []
        assert set(doc["workloads"]) == {"w1", "w2"}
        w1 = doc["workloads"]["w1"]
        assert w1["end_to_end"]["pass_s"]["verdict"] == "unchanged"
        assert w1["end_to_end"]["peak_rss_mb"]["bound"] == 0.15
        assert w1["per_layer"]["core.check_s"] == {
            "unit": "s", "better": "lower", "base": 0.5, "change": 0.4,
        }
        # a layer the traced run did not report is recorded as missing
        assert w1["per_layer"]["engine.cache_hits"]["base"] is None
        assert w1["failed_share"] == {"base": 0.0, "change": 0.0}
        json.dumps(doc)  # the document is plain JSON

    def test_a_regression_fails_the_record(self, rec):
        runner = FakeRunner(
            side_results=lambda side, w, seed: result(
                pass_s=1.5 if side == "change" and w == "w2" else 1.0
            )
        )
        doc = rec.record(SPEC, TREES, runner, log=lambda line: None)
        assert not doc["ok"]
        assert doc["workloads"]["w2"]["end_to_end"]["pass_s"]["verdict"] == "regression"
        assert doc["workloads"]["w1"]["problems"] == []
        assert len(doc["problems"]) == 1 and doc["problems"][0].startswith("w2: pass_s")

    def test_an_incorrect_run_fails_the_record(self, rec):
        runner = FakeRunner(traced=lambda side: traced_result(correct=side == "base"))
        doc = rec.record(SPEC, TREES, runner, log=lambda line: None)
        assert not doc["ok"]
        assert "change: 1 run(s) not correct" in doc["workloads"]["w1"]["problems"]

    def test_a_higher_failed_share_fails_the_record(self, rec):
        runner = FakeRunner(
            side_results=lambda side, w, seed: result(
                failed=1 if side == "change" and seed == 3 else 0
            )
        )
        doc = rec.record(SPEC, TREES, runner, log=lambda line: None)
        assert not doc["ok"]
        share = doc["workloads"]["w1"]["failed_share"]
        assert share["change"] > share["base"] == 0.0

    def test_a_crashed_run_counts_as_incorrect(self, rec, tmp_path):
        script = tmp_path / "crash.py"
        script.write_text("import sys\nprint('boom', file=sys.stderr)\nsys.exit(3)\n")
        runner = rec.perfbench_runner(["python3", str(script)], 1)
        out = runner(tmp_path, "w1", 1, 0)
        assert out["correct"] is False and out["failed"] == out["attempted"] == 1
        assert "exit 3" in out["error"] and "boom" in out["error"]

    def test_runner_parses_the_last_stdout_line(self, rec, tmp_path):
        script = tmp_path / "fake.py"
        script.write_text(
            "import json, sys\n"
            "print('== w1')\n"
            "print(json.dumps({'correct': True, 'attempted': 2, 'failed': 0,"
            " 'metrics': {'argv': {'value': len(sys.argv), 'unit': ''}}}))\n"
        )
        runner = rec.perfbench_runner(["python3", str(script)], 25)
        out = runner(tmp_path, "w1", 4, 1)
        assert out["correct"] is True
        # --workload w1 --seed 4 --seconds 25 --trace 1
        assert out["metrics"]["argv"]["value"] == 9

    def test_an_a_a_run_of_identical_trees_reads_unchanged(self, rec):
        doc = rec.record(SPEC, TREES, FakeRunner(), log=lambda line: None,
                         same_code=True)
        assert doc["ok"]
        verdicts = {
            row["verdict"]
            for summary in doc["workloads"].values()
            for row in summary["end_to_end"].values()
        }
        assert verdicts == {"unchanged"}

    def test_an_a_a_run_that_reads_a_difference_fails(self, rec):
        # a side-dependent reading between identical trees is bias in the
        # harness, not in the code: a "gain" there must not pass quietly
        runner = FakeRunner(
            side_results=lambda side, w, seed: result(
                rss=90.0 if side == "change" else 100.0
            )
        )
        doc = rec.record(SPEC, TREES, runner, log=lambda line: None)
        assert doc["ok"]
        assert doc["workloads"]["w1"]["end_to_end"]["peak_rss_mb"]["verdict"] == "gain"
        doc = rec.record(SPEC, TREES, runner, log=lambda line: None,
                         same_code=True)
        assert not doc["ok"]
        assert "w1: A/A: peak_rss_mb reads gain between identical trees" in doc["problems"]
