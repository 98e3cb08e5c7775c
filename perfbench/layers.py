"""Per-layer measurement for the traced run.

:func:`install` wraps each layer's public functions in spans at the name
its caller binds; :func:`layer_metrics` turns the recorded spans and
counts into the per-layer metrics every workload reports.  The ``cli``
layer is measured from outside, with child interpreters.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys
from pathlib import Path
from typing import Iterable, Optional

from procs import run_child

#: layer metrics every workload reports: name -> unit
LAYER_UNITS = {
    "cli.bare_python_s": "s",
    "cli.import_s": "s",
    "cli.import_ratio": "ratio",
    "seeds.builds": "count",
    "seeds.artifact_loads": "count",
    "seeds.artifact_rejects": "count",
    "ocamlfront.repository_s": "s",
    "ocamlfront.initial_env_s": "s",
    "ocamlfront.initial_env_calls": "count",
    "ocamlfront.initial_env_ms_per_call": "ms",
    "cfront.lex_s": "s",
    "cfront.parse_s": "s",
    "cfront.lower_s": "s",
    "cfront.tokens": "count",
    "cfront.tokens_per_s": "1/s",
    "core.check_s": "s",
    "core.unification_steps": "count",
    "dialect.analyze_self_s": "s",
    "linker.summarize_s": "s",
    "linker.summary_bytes_per_unit": "bytes",
    "linker.rows": "count",
    "engine.sweep_self_s": "s",
    "engine.units_run": "count",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "engine.rerun_useful_ratio": "ratio",
    "server.memo_hits": "count",
    "server.computed": "count",
    "trace_overhead": "ratio",
}

DIALECT_ANALYZE = ("ocaml.analyze", "pyext.analyze", "jni.analyze", "rust.analyze")


def install(recorder) -> None:
    """Patch every traced layer function; ``recorder.restore()`` undoes it."""
    import repro.cfront.parser as cparser
    import repro.core.checker as checker
    import repro.engine.cache as cache
    import repro.engine.incremental as incremental
    import repro.jni.dialect as jni
    import repro.linker.link as link
    import repro.ocamlfront.dialect as ocaml
    import repro.pyext.dialect as pyext
    import repro.rustffi.dialect as rust
    import repro.server.service as service

    def tokens(rec, result, _args):
        rec.count("cfront.tokens", len(result))

    def steps(rec, result, _args):
        rec.count("core.unification_steps", result.unification_steps)

    def rows(rec, _result, args):
        data = args[-1]
        rec.count("linker.rows", sum(len(v) for v in data.values() if isinstance(v, list)))

    def batch(rec, report, _args):
        count_results(rec, report.results)

    recorder.patch(cparser, "tokenize", "cfront.lex", tokens)
    recorder.patch(ocaml.OCamlDialect, "repository_for", "ocamlfront.repository")
    recorder.patch(ocaml, "build_initial_env", "ocamlfront.initial_env")
    recorder.patch(checker.Checker, "run", "core.check", steps)
    for module, cls, name in (
        (ocaml, ocaml.OCamlDialect, "ocaml"),
        (pyext, pyext.PyExtDialect, "pyext"),
        (jni, jni.JniDialect, "jni"),
        (rust, rust.RustFfiDialect, "rust"),
    ):
        recorder.patch(module, "parse_c", "cfront.parse")
        recorder.patch(module, "lower_unit", "cfront.lower")
        recorder.patch(cls, "analyze", f"{name}.analyze")
        recorder.patch(cls, "summarize", "linker.summarize")
    recorder.patch(link.Linker, "add_dict", "linker.add", rows)
    recorder.patch(link.Linker, "report", "linker.report")
    recorder.patch(cache.ResultCache, "load", "engine.cache_probe")
    recorder.patch(cache.TieredCache, "load", "engine.cache_probe")
    recorder.patch(incremental, "run_batch", "engine.sweep", batch)
    recorder.patch(incremental.IncrementalEngine, "check", "engine.incremental_check")
    recorder.patch(incremental.IncrementalEngine, "invalidate", "engine.invalidate")
    recorder.patch(service.AnalysisService, "handle_line", "server.handle")


def count_results(recorder, results: Iterable) -> None:
    """Cache and re-run counts, read from the results a sweep returned."""
    for result in results:
        if result.from_cache:
            recorder.count("engine.cache_hits")
        else:
            recorder.count("engine.cache_misses")
            recorder.count("engine.units_run")


def summary_bytes(summaries: Iterable[dict]) -> float:
    sizes = [len(json.dumps(s, sort_keys=True)) for s in summaries if s]
    return sum(sizes) / len(sizes) if sizes else 0.0


def seed_cold(seed_dir: Optional[Path] = None, warm_static: bool = False) -> None:
    """Make this process seed-cold, like a fresh ``mlffi-check`` child.

    With ``seed_dir`` the process also moves to that (fresh) artifact
    directory, optionally primed the way ``mlffi-check warmup`` primes it.
    """
    from repro import seeds

    if seed_dir is not None:
        os.environ["MLFFI_SEED_DIR"] = str(seed_dir)
        if warm_static:
            seeds.warmup_static()
    seeds.clear_seed_memos()


def seed_counters() -> dict:
    from repro.seeds import seed_stats

    stats = seed_stats()
    return {
        "builds": stats["table_builds"] + stats["host_builds"],
        "artifact_loads": stats["artifact_loads"],
        "artifact_rejects": stats["artifact_rejects"],
    }


def layer_metrics(recorder, seeds_before: dict, seeds_after: dict) -> dict[str, float]:
    """The per-layer metrics recorded spans and counts give."""
    total, counts = recorder.total, recorder.counts
    env_calls = recorder.calls("ocamlfront.initial_env")
    env_s = total("ocamlfront.initial_env")
    lex_s = total("cfront.lex")
    # parse_c runs the lexer inside it: parse time is what remains
    parse_s = total("cfront.parse") - total(
        "cfront.lex", where=lambda s: recorder.has_ancestor(s, "cfront.parse")
    )
    run = counts.get("engine.units_run", 0)
    return {
        "seeds.builds": seeds_after["builds"] - seeds_before["builds"],
        "seeds.artifact_loads": seeds_after["artifact_loads"] - seeds_before["artifact_loads"],
        "seeds.artifact_rejects": seeds_after["artifact_rejects"] - seeds_before["artifact_rejects"],
        "ocamlfront.repository_s": total("ocamlfront.repository"),
        "ocamlfront.initial_env_s": env_s,
        "ocamlfront.initial_env_calls": env_calls,
        "ocamlfront.initial_env_ms_per_call": 1000 * env_s / env_calls if env_calls else 0.0,
        "cfront.lex_s": lex_s,
        "cfront.parse_s": parse_s,
        "cfront.lower_s": total("cfront.lower"),
        "cfront.tokens": counts.get("cfront.tokens", 0),
        "cfront.tokens_per_s": counts.get("cfront.tokens", 0) / lex_s if lex_s else 0.0,
        "core.check_s": total("core.check"),
        "core.unification_steps": counts.get("core.unification_steps", 0),
        "dialect.analyze_self_s": recorder.self_time(*DIALECT_ANALYZE),
        "linker.summarize_s": total("linker.summarize"),
        "linker.rows": counts.get("linker.rows", 0),
        "engine.sweep_self_s": recorder.self_time("engine.sweep"),
        "engine.units_run": run,
        "engine.cache_hits": counts.get("engine.cache_hits", 0),
        "engine.cache_misses": counts.get("engine.cache_misses", 0),
        "engine.rerun_useful_ratio": counts.get("engine.units_changed", run) / run if run else 1.0,
    }


def report(metrics: dict[str, float], out) -> None:
    """Put the per-layer metrics on ``out``; a rejected seed artifact is a
    wrong result, since every artifact in a run was written by that run."""
    for name, value in metrics.items():
        out.put(name, value, LAYER_UNITS[name])
    rejects = metrics["seeds.artifact_rejects"]
    out.verdict(f"{rejects:.0f} seed artifact(s) rejected" if rejects else None)


def detail_metrics(recorder) -> dict[str, float]:
    """Layer figures that only some workloads exercise (printed, and kept
    in the Chrome trace, but not part of the per-layer metric set)."""
    total = recorder.total
    return {
        "pyext.analyze_self_s": recorder.self_time("pyext.analyze"),
        "jni.analyze_self_s": recorder.self_time("jni.analyze"),
        "rustffi.analyze_self_s": recorder.self_time("rust.analyze"),
        "ocaml.analyze_self_s": recorder.self_time("ocaml.analyze"),
        "linker.link_s": total("linker.add") + total("linker.report"),
        "engine.cache_probe_s": total("engine.cache_probe"),
        "engine.invalidate_s": total("engine.invalidate"),
        "engine.incremental_self_s": recorder.self_time("engine.incremental_check"),
        "server.handle_s": recorder.self_time("server.handle"),
    }


#: program phase span names -> the benchmark's spans over the same work
PHASE_MAP = {
    "initial-env": ("ocamlfront.repository", "ocamlfront.initial_env"),
    "lex": ("cfront.lex",),
    "parse": ("cfront.parse",),
    "lower": ("cfront.lower",),
    "seed+dataflow+unify-constraints": ("core.check",),
    "summarize": ("linker.summarize",),
    "link": ("linker.report",),
}


def cross_check(recorder, scope, theirs: dict, out) -> None:
    """Note, as information only, how far the program's own phase totals
    (from ``--trace-out``) are from the benchmark's spans under ``scope``,
    which covered the same input."""
    inside = recorder.within(scope)
    theirs = dict(theirs)
    theirs["seed+dataflow+unify-constraints"] = sum(
        theirs.get(k, 0.0) for k in ("seed", "dataflow", "unify-constraints")
    )
    out.note(f"cross-check against the program's --trace-out ({scope.args}):")
    for phase, names in PHASE_MAP.items():
        if phase not in theirs:
            continue
        ours = sum(recorder.total(n, where=inside) for n in names)
        if phase == "parse":
            # parse_c lexes first; the program's parse span does not
            ours -= recorder.total(
                "cfront.lex", where=lambda s: inside(s) and recorder.has_ancestor(s, "cfront.parse")
            )
        program = theirs[phase]
        gap = f"{(ours - program) / program:+.1%}" if program else "n/a"
        out.note(f"  {phase:32s} ours {ours:8.4f} s  program {program:8.4f} s  ({gap})")


# ---------------------------------------------------------------------------
# the cli layer, from child interpreters
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_seconds(importtime_stderr: str, package: str = "repro") -> float:
    """Cumulative import time of the top-level ``package`` imports in a
    ``python -X importtime`` report."""
    micros = 0
    for match in _IMPORT_LINE.finditer(importtime_stderr):
        _self, cumulative, indent, module = match.groups()
        depth = len(indent) - 1
        if depth == 0 and (module == package or module.startswith(package + ".")):
            micros += int(cumulative)
    return micros / 1e6


def cli_probes(env: dict, out_dir, repeats: int = 5) -> dict[str, float]:
    """Bare interpreter start-up and the cost of ``import repro.cli``."""
    python = sys.executable
    bare, imports = [], []
    for _ in range(repeats):
        bare.append(run_child([python, "-c", "pass"], env, out_dir).wall_s)
        child = run_child([python, "-X", "importtime", "-c", "import repro.cli"], env, out_dir)
        if child.returncode != 0:
            raise RuntimeError(f"import repro.cli failed: {child.stderr[-300:]}")
        imports.append(import_seconds(child.stderr))
    bare_s, import_s = statistics.median(bare), statistics.median(imports)
    return {
        "cli.bare_python_s": bare_s,
        "cli.import_s": import_s,
        "cli.import_ratio": import_s / bare_s,
    }
