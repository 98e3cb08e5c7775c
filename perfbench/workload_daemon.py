"""daemon-edit: the editor/watch loop against one resident daemon.

One ``mlffi-check serve DIR --tcp 127.0.0.1:0`` daemon, one connection,
closed loop: the client sends its next request only after the previous
reply.  A seeded stream mixes four kinds of request:

* ``unit``: toggle one unit's C between its filler and its defect, then
  ``invalidate`` + ``check`` — a write, the unit re-runs;
* ``header``: edit the shared header — every unit is invalidated, but
  content-addressed reuse means nothing re-runs;
* ``host``: edit ``lib.ml`` (rare) — every unit re-runs, host phase too;
* ``noop``: an unchanged re-check, served from resident results (or
  from the response memo when one is on file for the current state).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import layers
from context import Context, Deadline, Outcome, timing_note
from inputs import DaemonCorpus, daemon_corpus
from oracles import check_daemon
from procs import Daemon
from spans import Recorder
from stats import tail

UNITS = 150
SETUP_REPEATS = 3
#: one block of the request stream, shuffled per block by the seed
BLOCK = ("unit",) * 15 + ("header",) * 2 + ("noop",) * 2 + ("host",)
#: the reported peak RSS is the daemon's high-water mark after this many blocks
RSS_BLOCKS = 3
#: blocks the in-process traced replay sends
REPLAY_BLOCKS = 2
#: back-to-back unchanged re-checks timed in-process and over TCP
TRANSPORT_PROBES = 20
KINDS = ("unit", "header", "host", "noop")


def _workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def _apply(kind: str, corpus: DaemonCorpus, rng: random.Random):
    """Make the edit a request kind stands for; returns the edited path and
    how many units' analysis inputs changed, which is how many must re-run."""
    if kind == "unit":
        return corpus.toggle(rng.randrange(len(corpus.units))), 1
    if kind == "header":
        return corpus.edit_header(), 0
    if kind == "host":
        return corpus.edit_host(), len(corpus.units)
    return None, 0


def _spawn(ctx: Context, corpus: DaemonCorpus, out: Outcome) -> tuple[Daemon, float]:
    argv = ctx.cli(
        "serve", corpus.directory, "--tcp", "127.0.0.1:0", "--workers", str(_workers()),
        "--cache-dir", ctx.fresh_dir("cache"),
    )
    daemon = Daemon(argv, ctx.env(), ctx.fresh_dir("daemon") / "daemon.log")
    try:
        reply = daemon.call("check")
    except BaseException:
        daemon.close()
        raise
    setup = daemon.received - daemon.started
    out.operation("error" not in reply, f"first check: {reply.get('error')}")
    out.verdict(check_daemon(corpus.expected(), reply))
    return daemon, setup


def measure(ctx: Context) -> Outcome:
    out = Outcome()
    corpus = daemon_corpus(ctx.fresh_dir("corpus") / "tree", UNITS, ctx.seed)
    setups, rss = [], []
    daemon = None
    try:
        for attempt in range(SETUP_REPEATS):
            daemon, setup = _spawn(ctx, corpus, out)
            setups.append(setup)
            if attempt < SETUP_REPEATS - 1:
                daemon.close()
                rss.append(daemon.peak_rss_mb)

        rng = random.Random(f"stream-{ctx.seed}")
        times: dict[str, list[float]] = {kind: [] for kind in KINDS}
        changed = reran = blocks = 0
        stream_rss = None
        deadline = Deadline(ctx.seconds)
        while blocks < RSS_BLOCKS or not deadline.passed:
            kinds = list(BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                started = time.perf_counter()
                path, inputs_changed = _apply(kind, corpus, rng)
                ok = True
                if path is not None:
                    ok = "error" not in daemon.call("invalidate", {"paths": [str(path)]})
                reply = daemon.call("check")
                times[kind].append(daemon.received - started)
                ok = ok and "error" not in reply
                out.operation(ok, f"{kind} request: {reply.get('error')}")
                out.verdict(check_daemon(corpus.expected(), reply))
                if kind != "noop" and ok:
                    ran = reply["result"]["incremental"]["ran"]
                    changed += inputs_changed
                    reran += len(ran)
                    if len(ran) != inputs_changed:
                        out.note(f"unexpected re-run set after a {kind} edit: {len(ran)} unit(s)")
            blocks += 1
            if blocks == RSS_BLOCKS:
                stream_rss = daemon.rss_high_water_mb()
    finally:
        if daemon is not None:
            daemon.close()
    # the daemon's high-water mark after a fixed number of requests, so
    # the figure does not depend on how many fit in the time budget
    rss.append(stream_rss if stream_rss is not None else daemon.peak_rss_mb)

    edits = times["unit"]
    out.put("setup_s", statistics.median(setups), "s")
    out.put("latency_p50_ms", 1000 * statistics.median(edits), "ms")
    out.put("latency_tail_ms", 1000 * tail(edits).value, "ms")
    out.put("pass_s", statistics.median(times["host"]), "s")
    out.put("noop_ms", 1000 * statistics.median(times["noop"]), "ms")
    out.put("peak_rss_mb", max(rss), "MB")
    out.note(timing_note("edit (unit edit round trip)", edits))
    out.note(timing_note("host_edit (lib.ml edit round trip)", times["host"], 1.0, "s"))
    out.note(timing_note("header edit round trip", times["header"]))
    out.note(timing_note("noop (unchanged re-check)", times["noop"]))
    out.note(f"re-run useful ratio: {changed} changed / {reran} re-run")
    out.note(f"daemon peak RSS: {rss[-1]:.1f} MB after {RSS_BLOCKS} blocks, {daemon.peak_rss_mb:.1f} MB over the run")
    return out


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _replay(
    ctx: Context, recorder, out: Outcome, blocks: int = REPLAY_BLOCKS
) -> tuple[float, dict, dict]:
    """The same request stream through ``AnalysisService.handle_line`` over
    an in-process ``IncrementalEngine``, as the daemon runs it."""
    from repro.engine import IncrementalEngine, ResultCache
    from repro.server import AnalysisService

    corpus = daemon_corpus(ctx.fresh_dir("corpus") / "tree", UNITS, ctx.seed)
    layers.seed_cold(ctx.fresh_dir("seeds"))
    before = layers.seed_counters()
    rng = random.Random(f"stream-{ctx.seed}")
    handle: dict[str, list[float]] = {kind: [] for kind in KINDS}
    ids = iter(range(1, 1 << 30))

    def send(method: str, params=None) -> str:
        line = json.dumps({"id": next(ids), "method": method, "params": params or {}})
        return service.handle_line(line)

    started = time.perf_counter()
    engine = IncrementalEngine(
        corpus.directory, dialect="ocaml", jobs=1, cache=ResultCache(ctx.fresh_dir("cache"))
    )
    service = AnalysisService(engine)
    if recorder is not None:
        recorder.count("engine.units_changed", len(corpus.units))
    reply = json.loads(send("check"))
    out.verdict(check_daemon(corpus.expected(), reply))
    for _ in range(blocks):
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            path, inputs_changed = _apply(kind, corpus, rng)
            request_started = time.perf_counter()
            ok = True
            if path is not None:
                ok = "error" not in json.loads(send("invalidate", {"paths": [str(path)]}))
            line = send("check")
            handle[kind].append(time.perf_counter() - request_started)
            reply = json.loads(line)
            out.operation(ok and "error" not in reply, f"{kind}: {reply.get('error')}")
            out.verdict(check_daemon(corpus.expected(), reply))
            if recorder is not None and kind != "noop":
                recorder.count("engine.units_changed", inputs_changed)
    elapsed = time.perf_counter() - started
    summaries = [unit.get("summary") for unit in reply["result"]["units"]]
    handle["repeat"] = []
    for _ in range(TRANSPORT_PROBES if recorder is None else 0):
        request_started = time.perf_counter()
        send("check")
        handle["repeat"].append(time.perf_counter() - request_started)
    status = json.loads(send("status"))["result"]["coalescing"]
    counters = {
        "server.memo_hits": status["coalesced_memo"],
        "server.computed": status["computed"],
        "linker.summary_bytes_per_unit": layers.summary_bytes(summaries),
    }
    return elapsed, {"before": before, **counters}, handle


def _transport_ms(ctx: Context, handle_repeat_s: float, out: Outcome) -> float:
    """Median round trip over TCP of back-to-back unchanged re-checks,
    minus the median in-process handling time of the same sequence."""
    corpus = daemon_corpus(ctx.fresh_dir("corpus") / "tree", UNITS, ctx.seed)
    daemon, _setup = _spawn(ctx, corpus, out)
    try:
        trips = []
        for _ in range(TRANSPORT_PROBES):
            started = time.perf_counter()
            reply = daemon.call("check")
            trips.append(daemon.received - started)
            out.verdict(check_daemon(corpus.expected(), reply))
    finally:
        daemon.close()
    return 1000 * (statistics.median(trips) - handle_repeat_s)


def traced(ctx: Context) -> Outcome:
    out = Outcome()
    metrics = layers.cli_probes(ctx.env(), ctx.temp_root / "child")
    # the first replay in a process pays one-time import and interning
    # costs; it is discarded so the untraced baseline is warm too
    _replay(ctx, None, Outcome(), blocks=0)
    untraced_s, _counters, handle = _replay(ctx, None, out)

    recorder = Recorder()
    layers.install(recorder)
    try:
        traced_s, counters, _handle = _replay(ctx, recorder, out)
    finally:
        recorder.restore()
    before = counters.pop("before")
    metrics.update(layers.layer_metrics(recorder, before, layers.seed_counters()))
    metrics.update(counters)
    metrics["trace_overhead"] = traced_s / untraced_s
    layers.report(metrics, out)
    for name, value in layers.detail_metrics(recorder).items():
        out.note(f"{name}: {value:.4f}")
    for kind in KINDS:
        out.note(f"in-process {kind} request p50: {1000 * statistics.median(handle[kind]):.3f} ms")
    repeat_s = statistics.median(handle["repeat"])
    transport = _transport_ms(ctx, repeat_s, out)
    out.note(f"server.transport_ms: {transport:.3f} ms (re-check round trip {1000 * repeat_s + transport:.3f} ms - handle {1000 * repeat_s:.3f} ms)")
    out.note(f"replay wall: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s")
    recorder.write_chrome(ctx.trace_dir / f"daemon-edit-seed{ctx.seed}.json")
    return out
