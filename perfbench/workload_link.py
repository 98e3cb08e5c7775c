"""link-sweep: the whole-repository CI sweep, at N and at 4N units.

One ``mlffi-check link DIR --dialect ocaml --jobs 1 --no-cache`` process
per corpus size.  Each unit brings its own host pair, so the host grows
with the corpus and the per-unit host phase shows as superlinear growth.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext

import layers
from context import Context, Deadline, Outcome, timing_note
from inputs import LinkCorpus, link_corpus
from oracles import check_link
from spans import Recorder, phase_totals
from stats import tail

#: the small corpus; the large one has 4x as many units
UNITS = 50
SETUP_REPEATS = 3
#: N-unit links per pass: the small sweep is short, so it is sampled more
SMALL_PER_PASS = 3


def _link_argv(ctx: Context, corpus: LinkCorpus, *cache: str) -> list[str]:
    return ctx.cli(
        "link", corpus.directory, "--dialect", "ocaml", "--jobs", "1",
        *(cache or ("--no-cache",)), "--format", "json",
    )


def _link(ctx: Context, corpus: LinkCorpus, env: dict, out: Outcome, *cache: str):
    child = ctx.run(_link_argv(ctx, corpus, *cache), env)
    # per-unit clean: the exit code counts the planted link errors only
    want_exit = min(2 * corpus.plants, 125)
    out.operation(child.returncode == want_exit, f"link exited {child.returncode}, want {want_exit}")
    try:
        document = json.loads(child.stdout)
    except ValueError:
        out.verdict(f"link over {corpus.units} units: no JSON report")
    else:
        # the report's own elapsed_seconds is never read: time is ours
        out.verdict(check_link(corpus, document))
    return child


def _corpora(ctx: Context) -> tuple[LinkCorpus, LinkCorpus]:
    small = link_corpus(ctx.checkout, ctx.fresh_dir("corpus") / "small", UNITS, ctx.seed)
    large = link_corpus(ctx.checkout, ctx.fresh_dir("corpus") / "large", 4 * UNITS, ctx.seed)
    return small, large


def measure(ctx: Context) -> Outcome:
    out = Outcome()
    small, large = _corpora(ctx)

    setups = []
    for _ in range(SETUP_REPEATS):
        env = ctx.env()
        wall = 0.0
        for corpus in (small, large):
            child = ctx.run(ctx.cli("warmup", corpus.directory, "--dialect", "ocaml", "--format", "json"), env)
            out.operation(child.returncode == 0, f"warmup exited {child.returncode}")
            wall += child.wall_s
        setups.append(wall)

    cache = ("--cache-dir", str(ctx.fresh_dir("cache")))
    rss = [_link(ctx, small, env, out, *cache).peak_rss_mb]
    small_walls, large_walls, noops = [], [], []
    deadline = Deadline(ctx.seconds)
    while not deadline.passed:
        for corpus, walls in [(small, small_walls)] * SMALL_PER_PASS + [(large, large_walls)]:
            child = _link(ctx, corpus, env, out)
            walls.append(child.wall_s)
            rss.append(child.peak_rss_mb)
        child = _link(ctx, small, env, out, *cache)
        noops.append(child.wall_s)

    small_s, large_s = statistics.median(small_walls), statistics.median(large_walls)
    out.put("setup_s", statistics.median(setups), "s")
    out.put("latency_p50_ms", 1000 * small_s, "ms")
    out.put("latency_tail_ms", 1000 * tail(small_walls).value, "ms")
    out.put("pass_s", large_s, "s")
    out.put("noop_ms", 1000 * statistics.median(noops), "ms")
    out.put("peak_rss_mb", max(rss), "MB")
    out.note(timing_note(f"link at N={small.c_units} units", small_walls))
    out.note(timing_note(f"link at 4N={large.c_units} units", large_walls))
    out.note(f"sweep_units_per_s: {large.c_units / large_s:.3f} 1/s (4N units / 4N wall)")
    out.note(f"sweep_scale_4x: {large_s / (4 * small_s):.4f} (wall(4N) / (4 x wall(N)); 1.0 is linear)")
    out.note(timing_note("cached re-link at N (nothing changed)", noops))
    return out


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _sweep(corpus: LinkCorpus, recorder, out: Outcome, label: str, cache=None) -> list:
    """One ``link`` invocation's work, through the calls the CLI makes:
    a streamed sweep over the tree, then the link pass."""
    from repro.boundary import get_dialect
    from repro.core.exprs import Options
    from repro.corpus import iter_tree
    from repro.engine import CheckRequest, stream_batch
    from repro.linker import Linker

    layers.seed_cold()  # each link is a fresh process
    summaries: list = []
    with recorder.span("sweep", corpus=label) if recorder else nullcontext():
        scan = iter_tree(corpus.directory, get_dialect("ocaml"))
        hosts = tuple(scan.hosts)
        requests = (
            CheckRequest(
                name=source.filename, c_sources=(source,), ocaml_sources=hosts,
                options=Options(), dialect="ocaml",
            )
            for source in scan.iter_units()
        )
        linker = Linker()

        def on_result(result) -> None:
            if recorder is not None:
                layers.count_results(recorder, (result,))
            if result.failure is None and result.summary:
                linker.add_dict(result.summary)
                summaries.append(result.summary)

        sweep = stream_batch if recorder is None else recorder.wrap(stream_batch, "engine.sweep")
        stats = sweep(requests, jobs=1, cache=cache, on_result=on_result)
        report = linker.report()
    out.operation(stats.failures == 0, f"{stats.failures} unit failure(s) at {label}")
    out.verdict(check_link(corpus, {"link": report.to_dict(), "stream": stats.to_dict()}))
    return summaries


def _replay(ctx: Context, small: LinkCorpus, large: LinkCorpus, recorder, out: Outcome):
    from repro import seeds
    from repro.engine import ResultCache
    from repro.source import SourceFile

    layers.seed_cold(ctx.fresh_dir("seeds"), warm_static=True)
    for corpus in (small, large):
        hosts = tuple(
            SourceFile(str(p), p.read_text()) for p in sorted(corpus.directory.rglob("*.ml"))
        )
        seeds.warmup_hosts("ocaml", hosts)
    cache = ResultCache(ctx.fresh_dir("cache"))
    before = layers.seed_counters()
    started = time.perf_counter()
    sizes = {}
    for label, corpus in (("N", small), ("4N", large)):
        sizes[label] = layers.summary_bytes(_sweep(corpus, recorder, out, label))
    _sweep(small, recorder, out, "N cached, cold", cache)
    _sweep(small, recorder, out, "N cached, warm", cache)
    return time.perf_counter() - started, before, sizes


def traced(ctx: Context) -> Outcome:
    out = Outcome()
    metrics = layers.cli_probes(ctx.env(), ctx.temp_root / "child")
    small, large = _corpora(ctx)
    # the first sweep in a process pays one-time import and interning
    # costs; it is discarded so the untraced baseline is warm too
    layers.seed_cold(ctx.fresh_dir("seeds"), warm_static=True)
    _sweep(small, None, Outcome(), "warm-up")
    untraced_s, _before, _sizes = _replay(ctx, small, large, None, out)

    recorder = Recorder()
    layers.install(recorder)
    try:
        traced_s, before, sizes = _replay(ctx, small, large, recorder, out)
    finally:
        recorder.restore()
    metrics.update(layers.layer_metrics(recorder, before, layers.seed_counters()))
    metrics["linker.summary_bytes_per_unit"] = sizes["4N"]
    metrics["server.memo_hits"] = 0
    metrics["server.computed"] = 0
    metrics["trace_overhead"] = traced_s / untraced_s
    layers.report(metrics, out)

    per_unit = {}
    for label, corpus in (("N", small), ("4N", large)):
        scope = recorder.find("sweep", corpus=label)
        inside = recorder.within(scope)
        env_s = recorder.total("ocamlfront.initial_env", where=inside)
        per_unit[label] = 1000 * env_s / corpus.c_units
        out.note(
            f"{label} ({corpus.c_units} units): wall {scope.duration:.3f} s, "
            f"ocamlfront.initial_env_s {env_s:.3f} s ({env_s / scope.duration:.1%} of wall), "
            f"ocamlfront.initial_env_ms_per_unit {per_unit[label]:.3f} ms, "
            f"linker.summary_bytes_per_unit {sizes[label]:.0f}"
        )
    out.note(f"ocamlfront.initial_env_growth_4x: {per_unit['4N'] / per_unit['N']:.3f} (per-unit cost, 4N / N)")
    for name, value in layers.detail_metrics(recorder).items():
        out.note(f"{name}: {value:.4f}")
    out.note(f"replay wall: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s")

    trace_path = ctx.temp_root / "program-trace.json"
    env = ctx.env()
    ctx.run(ctx.cli("warmup", small.directory, "--dialect", "ocaml"), env)
    child = ctx.run(_link_argv(ctx, small) + ["--trace-out", str(trace_path)], env)
    if trace_path.is_file():
        layers.cross_check(recorder, recorder.find("sweep", corpus="N"), phase_totals(trace_path), out)
    else:
        out.note(f"cross-check skipped: --trace-out wrote nothing (exit {child.returncode})")
    recorder.write_chrome(ctx.trace_dir / f"link-sweep-seed{ctx.seed}.json")
    return out
