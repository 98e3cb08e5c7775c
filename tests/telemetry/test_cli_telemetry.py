"""CLI telemetry flags: trace/metrics artifacts, and the guarantee that
turning them on never perturbs the analysis output itself."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main

ML = (
    "type t = A of int | B\n"
    'external get : t -> int = "ml_get"\n'
    'external bad : int -> int = "ml_bad"\n'
)

GOOD_C = """\
value ml_get(value x)
{
    if (Is_long(x)) return Val_int(0);
    return Field(x, 0);
}
"""

BAD_C = "value ml_bad(value x) { return Val_int(x); }\n"

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: every dialect's clean example, as ``check`` arguments
CLEAN_EXAMPLES = {
    "ocaml": ["glue/counter.ml", "glue/counter_stubs.c"],
    "pyext": ["pyext/clean_module.c"],
    "jni": ["jni/clean_native.c"],
    "rust": ["rust/clean_bindings/lib.rs", "rust/clean_bindings/glue.c"],
}


@pytest.fixture()
def tree(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "lib.ml").write_text(ML)
    (root / "good.c").write_text(GOOD_C)
    (root / "bad.c").write_text(BAD_C)
    return root


def normalized(text: str) -> str:
    """The JSON output with volatile wall-clock numbers zeroed and the
    opt-in telemetry stanza removed — everything else must match to the
    byte when telemetry is switched on."""

    def scrub(node):
        if isinstance(node, dict):
            return {
                key: 0.0 if key.endswith("_seconds") else scrub(value)
                for key, value in node.items()
                if key != "telemetry"
            }
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    return json.dumps(scrub(json.loads(text)), sort_keys=True)


class TestOutputUnperturbed:
    def test_check_json_identical_with_and_without_telemetry(
        self, tree, tmp_path, capsys
    ):
        argv = [
            "check",
            str(tree / "lib.ml"),
            str(tree / "good.c"),
            "--format",
            "json",
        ]
        code_off = main(argv)
        plain = capsys.readouterr().out
        code_on = main(
            argv
            + [
                "--trace-out",
                str(tmp_path / "t.json"),
                "--metrics-out",
                str(tmp_path / "m.prom"),
            ]
        )
        traced = capsys.readouterr().out
        assert code_on == code_off
        assert normalized(traced) == normalized(plain)

    def test_batch_json_identical_with_and_without_telemetry(
        self, tree, tmp_path, capsys
    ):
        argv = [
            "batch",
            str(tree),
            "--no-cache",
            "--jobs",
            "1",
            "--format",
            "json",
        ]
        code_off = main(argv)
        plain = capsys.readouterr().out
        code_on = main(
            argv
            + [
                "--trace-out",
                str(tmp_path / "t.json"),
                "--metrics-out",
                str(tmp_path / "m.prom"),
            ]
        )
        traced = capsys.readouterr().out
        assert code_on == code_off == 1  # the seeded Val_int bug
        assert normalized(traced) == normalized(plain)

    def test_stanza_only_appears_when_tracing(self, tree, tmp_path, capsys):
        main(["batch", str(tree), "--no-cache", "--format", "json"])
        assert "telemetry" not in json.loads(capsys.readouterr().out)
        main(
            [
                "batch",
                str(tree),
                "--no-cache",
                "--format",
                "json",
                "--trace-out",
                str(tmp_path / "t.json"),
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["telemetry"]["phases"]["unit"]["count"] == 2


class TestTraceArtifact:
    def test_batch_trace_nests_phases_inside_unit_spans(
        self, tree, tmp_path, capsys
    ):
        out = tmp_path / "t.json"
        main(
            [
                "batch",
                str(tree),
                "--no-cache",
                "--format",
                "json",
                "--trace-out",
                str(out),
            ]
        )
        capsys.readouterr()
        events = json.loads(out.read_text())["traceEvents"]
        units = [e for e in events if e["cat"] == "unit"]
        assert len(units) == 2
        for unit in units:
            lo, hi = unit["ts"], unit["ts"] + unit["dur"]
            nested = {
                e["name"]
                for e in events
                if e["cat"] == "phase"
                and e["pid"] == unit["pid"]
                and lo <= e["ts"]
                and e["ts"] + e["dur"] <= hi + 1
            }
            assert {"lex", "parse", "lower", "dataflow"} <= nested

    def test_check_trace_records_the_single_unit(
        self, tree, tmp_path, capsys
    ):
        out = tmp_path / "t.json"
        main(
            [
                "check",
                str(tree / "lib.ml"),
                str(tree / "good.c"),
                "--trace-out",
                str(out),
            ]
        )
        capsys.readouterr()
        events = json.loads(out.read_text())["traceEvents"]
        (unit,) = [e for e in events if e["cat"] == "unit"]
        assert unit["name"] == "<project>"
        assert unit["args"]["dialect"] == "ocaml"


    @pytest.mark.parametrize("dialect", sorted(CLEAN_EXAMPLES))
    def test_every_dialect_traces_the_same_phases(
        self, dialect, tmp_path, capsys
    ):
        out = tmp_path / "t.json"
        files = [str(EXAMPLES / name) for name in CLEAN_EXAMPLES[dialect]]
        code = main(
            ["check", "--dialect", dialect, *files, "--trace-out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert {e["name"] for e in events if e["cat"] == "phase"} == {
            "lex",
            "parse",
            "initial-env",
            "lower",
            "seed",
            "dataflow",
            "unify-constraints",
            "dialect-passes",
            "summarize",
        }


class TestMetricsArtifact:
    def test_batch_metrics_carry_units_and_cache_probes(
        self, tree, tmp_path, capsys
    ):
        out = tmp_path / "m.prom"
        main(
            [
                "batch",
                str(tree),
                "--no-cache",
                "--format",
                "json",
                "--metrics-out",
                str(out),
            ]
        )
        capsys.readouterr()
        text = out.read_text()
        assert "mlffi_run_units 2" in text
        assert (
            'mlffi_cache_probes_total{tier="none",outcome="miss"} 2' in text
        )
        assert (
            'mlffi_unit_seconds_count{dialect="ocaml",outcome="fresh"} 2'
            in text
        )

    def test_batch_and_stream_write_one_run_family_set(
        self, tree, tmp_path, capsys
    ):
        # one sweep driver, one set of mlffi_run_* gauges, whatever the mode
        families = []
        for mode in ([], ["--stream"]):
            out = tmp_path / f"m{len(families)}.prom"
            argv = ["batch", str(tree), "--no-cache", "--format", "json"]
            main(argv + mode + ["--metrics-out", str(out)])
            text = out.read_text()
            assert "mlffi_run_units 2" in text
            families.append(set(re.findall(r"^(mlffi_run_\w+) ", text, re.M)))
        capsys.readouterr()
        assert families[0] == families[1]
        assert {"mlffi_run_units", "mlffi_run_coalesced"} <= families[0]

    def test_warm_batch_metrics_split_hits_by_tier(
        self, tree, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        argv = ["batch", str(tree), "--cache-dir", cache_dir, "--format", "json"]
        main(argv)
        capsys.readouterr()
        out = tmp_path / "m.prom"
        main(argv + ["--metrics-out", str(out)])
        capsys.readouterr()
        text = out.read_text()
        assert (
            'mlffi_cache_probes_total{tier="disk",outcome="hit"} 2' in text
        )
        assert (
            'mlffi_unit_seconds_count{dialect="ocaml",outcome="hit"} 2'
            in text
        )

    def test_metrics_disabled_outside_the_run(self, tree, tmp_path, capsys):
        from repro.telemetry import REGISTRY, metrics_enabled

        main(
            [
                "batch",
                str(tree),
                "--no-cache",
                "--format",
                "json",
                "--metrics-out",
                str(tmp_path / "m.prom"),
            ]
        )
        capsys.readouterr()
        assert not metrics_enabled()
        REGISTRY.reset()
