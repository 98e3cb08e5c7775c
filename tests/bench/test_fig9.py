"""Figure 9 through ``mlffi-check bench``: the paper's per-library counts.

The whole suite runs once, through the CLI, and every check below reads
that one run: each row equals the paper's row and its own ground truth,
the bottom row equals Figure 9's totals, the §5.2 error taxonomy holds,
and ``bench`` exits 0 only when every row matches.
"""

import io
from contextlib import redirect_stdout

import pytest

from repro import cli
from repro.api import analyze_project
from repro.bench import runner
from repro.bench.report import error_taxonomy
from repro.bench.specs import PAPER_TOTALS, SUITE, spec_by_name
from repro.bench.synth import synthesize_scaled
from repro.core.exprs import Options


def _bench(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def bench_run():
    """``mlffi-check bench`` over the full suite, with its SuiteResult."""
    suites = []

    def spy():
        suites.append(run_suite())
        return suites[-1]

    run_suite = runner.run_suite
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "run_suite", spy)
        code, text = _bench(["bench"])
    (suite,) = suites
    return code, text, suite


def test_bench_exits_zero_when_every_row_matches(bench_run):
    code, text, _suite = bench_run
    assert code == 0
    assert "Total" in text


def test_every_row_matches_the_paper_and_its_ground_truth(bench_run):
    _code, _text, suite = bench_run
    assert [r.spec.name for r in suite.results] == [s.name for s in SUITE]
    for result in suite.results:
        assert result.tally == result.spec.expected, result.spec.name
        assert result.matches_ground_truth, result.spec.name


def test_totals_are_figure9s_bottom_row(bench_run):
    """24 errors, 22 warnings, 214 false positives, 75 imprecision."""
    _code, _text, suite = bench_run
    assert suite.totals() == PAPER_TOTALS
    assert suite.all_match_ground_truth


def test_defect_taxonomy(bench_run):
    """§5.2: 3 unregistered-pointer + 2 register-leak + 19 type errors."""
    _code, _text, suite = bench_run
    taxonomy = error_taxonomy(suite)
    assert taxonomy.pop("UNPROTECTED_VALUE") == 3
    assert taxonomy.pop("MISSING_CAMLRETURN") == 2
    assert sum(taxonomy.values()) == 19
    assert set(taxonomy) <= {
        "BAD_VAL_INT",
        "BAD_INT_VAL",
        "TYPE_MISMATCH",
        "OPTION_MISUSE",
        "TAG_OUT_OF_RANGE",
        "ARITY_MISMATCH",
    }


def test_lablgtk_is_the_most_work(bench_run):
    """The Time column's shape, counted: the largest library takes the
    most unification steps."""
    _code, _text, suite = bench_run
    steps = {r.spec.name: r.report.unification_steps for r in suite.results}
    assert max(steps, key=steps.get) == "lablgtk-2.2.0"


def test_bench_exits_one_on_a_mismatched_row(monkeypatch):
    monkeypatch.setattr(
        runner.BenchmarkResult, "matches_paper", property(lambda self: False)
    )
    code, _text = _bench(["bench", "--program", "ocaml-mad-0.1.0"])
    assert code == 1


def test_flow_insensitivity_adds_reports_to_a_clean_row(bench_run):
    """Without B/I/T tracking the tag-dispatch idiom of the clean lablgl
    row can no longer be validated."""
    _code, _text, suite = bench_run
    index = [s.name for s in SUITE].index("lablgl-1.00")
    degraded = runner.run_benchmark(
        SUITE[index], Options(flow_sensitive=False), unique_prefix=index
    )
    baseline = suite.results[index]
    assert baseline.matches_paper
    assert len(degraded.report.diagnostics) > len(baseline.report.diagnostics)
    # flow-insensitive mode does strictly less tracking; it must not cost
    # disproportionately more unification work
    assert (
        degraded.report.unification_steps
        < 3 * baseline.report.unification_steps
    )


def test_unification_steps_grow_linearly_with_c_loc():
    """Each function is analyzed independently: 16x the C code may cost
    at most 2x its LoC ratio in unification steps (measured ~1.04x)."""
    base = spec_by_name("apm-1.00")
    measured = {}
    for c_loc in (250, 4000):
        program = synthesize_scaled(base, c_loc, unique_prefix=50_000 + c_loc)
        report = analyze_project([program.ocaml_source], [program.c_source])
        assert report.tally() == {
            "errors": 0,
            "warnings": 0,
            "false_positives": 0,
            "imprecision": 0,
        }
        measured[c_loc] = (program.c_loc, report.unification_steps)
    (small_loc, small_steps), (large_loc, large_steps) = measured.values()
    assert small_loc >= 250 and large_loc >= 4000
    assert large_steps / small_steps <= 2 * large_loc / small_loc, measured
