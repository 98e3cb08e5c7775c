"""fig9-oneshot: the paper's Figure 9 programs, one fresh process each.

Each program runs as one ``mlffi-check check ... --format json`` child,
one after another, the way a pre-commit hook or per-file CI job runs
the checker.  Start-up is paid by every program.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext

import layers
from context import Context, Deadline, Outcome, timing_note
from inputs import Program, fig9_programs, trivial_program
from oracles import check_program
from spans import Recorder, phase_totals
from stats import tail

SETUP_REPEATS = 3
NOOP_PER_PASS = 3


def _check_argv(ctx: Context, program: Program, *extra: str) -> list[str]:
    return ctx.cli("check", "--dialect", program.dialect, *program.files, "--format", "json", *extra)


def _run_program(ctx: Context, program: Program, env: dict, out: Outcome):
    child = ctx.run(_check_argv(ctx, program), env)
    want_exit = min(program.expected["errors"], 125)
    out.operation(child.returncode == want_exit, f"{program.name} exited {child.returncode}, want {want_exit}")
    try:
        document = json.loads(child.stdout)
    except ValueError:
        out.verdict(f"{program.name}: no JSON report (exit {child.returncode})")
    else:
        out.verdict(check_program(program, document))
    return child


def measure(ctx: Context) -> Outcome:
    out = Outcome()
    programs = fig9_programs(ctx.checkout, ctx.fresh_dir("inputs"), ctx.seed)
    trivial = trivial_program(ctx.fresh_dir("inputs"))

    setups = []
    for _ in range(SETUP_REPEATS):
        env = ctx.env()
        child = ctx.run(ctx.cli("warmup", "--format", "json"), env)
        out.operation(child.returncode == 0, f"warmup exited {child.returncode}")
        setups.append(child.wall_s)

    walls, suites, noops, rss = [], [], [], []
    deadline = Deadline(ctx.seconds)
    while not deadline.passed:
        suite = 0.0
        for program in programs:
            child = _run_program(ctx, program, env, out)
            walls.append(child.wall_s)
            rss.append(child.peak_rss_mb)
            suite += child.wall_s
        suites.append(suite)
        for _ in range(NOOP_PER_PASS):
            child = _run_program(ctx, trivial, env, out)
            noops.append(child.wall_s)

    out.put("setup_s", statistics.median(setups), "s")
    out.put("latency_p50_ms", 1000 * statistics.median(walls), "ms")
    out.put("latency_tail_ms", 1000 * tail(walls).value, "ms")
    out.put("pass_s", statistics.median(suites), "s")
    out.put("noop_ms", 1000 * statistics.median(noops), "ms")
    out.put("peak_rss_mb", max(rss), "MB")
    out.note(timing_note("oneshot (one check process)", walls))
    out.note(f"oneshot_p50_s: {statistics.median(walls):.4f} s")
    out.note(f"suite_s: {statistics.median(suites):.4f} s over {len(suites)} pass(es) of {len(programs)} programs")
    return out


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _replay(programs: list[Program], recorder, out: Outcome) -> tuple[float, list]:
    """Every program through the entry points ``check`` uses, plus the
    engine and linker: one whole-program request per program."""
    from repro.api import Project
    from repro.boundary import get_dialect
    from repro.core.exprs import Options
    from repro.engine import run_batch
    from repro.linker import Linker
    from repro.source import SourceFile

    projects = []
    for program in programs:
        project = Project(dialect=program.dialect)
        host_suffixes = get_dialect(program.dialect).host_suffixes
        for path in program.files:
            source = SourceFile(str(path), path.read_text())
            (project.add_ocaml if path.suffix in host_suffixes else project.add_c)(source)
        projects.append(project)
    sweep = run_batch if recorder is None else recorder.wrap(run_batch, "engine.sweep")
    summaries = []
    started = time.perf_counter()
    for program, project in zip(programs, projects):
        # each check is a fresh process: start every program seed-cold
        layers.seed_cold()
        scope = recorder.span("program", program=program.name) if recorder else nullcontext()
        with scope:
            report = sweep([project.to_request(Options())], jobs=1, cache=None)
            if recorder is not None:
                layers.count_results(recorder, report.results)
            linker = Linker()
            for result in report.results:
                if result.failure is None and result.summary:
                    linker.add_dict(result.summary)
            linker.report()
        result = report.results[0]
        out.operation(result.failure is None, f"{program.name}: {result.failure}")
        out.verdict(check_program(program, {"tally": result.tally()}))
        summaries.append(result.summary)
    return time.perf_counter() - started, summaries


CROSS_CHECK_PROGRAM = "lablgtk-2.2.0"


def traced(ctx: Context) -> Outcome:
    out = Outcome()
    metrics = layers.cli_probes(ctx.env(), ctx.temp_root / "child")
    programs = fig9_programs(ctx.checkout, ctx.fresh_dir("inputs"), ctx.seed)

    # the first replay in a process pays one-time import and interning
    # costs; it is discarded so the untraced baseline is warm too
    layers.seed_cold(ctx.fresh_dir("seeds"), warm_static=True)
    _replay(programs, None, Outcome())
    layers.seed_cold(ctx.fresh_dir("seeds"), warm_static=True)
    untraced_s, _ = _replay(programs, None, out)

    recorder = Recorder()
    layers.seed_cold(ctx.fresh_dir("seeds"), warm_static=True)
    before = layers.seed_counters()
    layers.install(recorder)
    try:
        traced_s, summaries = _replay(programs, recorder, out)
    finally:
        recorder.restore()
    metrics.update(layers.layer_metrics(recorder, before, layers.seed_counters()))
    metrics["linker.summary_bytes_per_unit"] = layers.summary_bytes(summaries)
    metrics["server.memo_hits"] = 0
    metrics["server.computed"] = 0
    metrics["trace_overhead"] = traced_s / untraced_s
    layers.report(metrics, out)
    for name, value in layers.detail_metrics(recorder).items():
        out.note(f"{name}: {value:.4f}")
    out.note(f"replay wall: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s")

    program = next(p for p in programs if p.name == CROSS_CHECK_PROGRAM)
    trace_path = ctx.temp_root / "program-trace.json"
    env = ctx.env()
    ctx.run(ctx.cli("warmup"), env)
    child = ctx.run(_check_argv(ctx, program, "--trace-out", str(trace_path)), env)
    if trace_path.is_file():
        scope = recorder.find("program", program=program.name)
        layers.cross_check(recorder, scope, phase_totals(trace_path), out)
    else:
        out.note(f"cross-check skipped: --trace-out wrote nothing (exit {child.returncode})")
    recorder.write_chrome(ctx.trace_dir / f"fig9-oneshot-seed{ctx.seed}.json")
    return out
