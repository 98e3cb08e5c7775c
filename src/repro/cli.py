"""Command-line interface: the two §5.1 tools behind one driver.

Usage::

    mlffi-check check glue.ml stubs.c [more .ml/.c files ...]
    mlffi-check check --dialect pyext extension_module.c
    mlffi-check check --dialect jni native_lib.c
    mlffi-check check --no-flow-sensitive --no-gc-effects stubs.c
    mlffi-check check --format sarif glue.ml stubs.c > report.sarif
    mlffi-check batch src/glue --jobs 4 --format json
    mlffi-check batch --dialect pyext src/ext --jobs 4
    mlffi-check batch src/glue --link
    mlffi-check batch huge-corpus --stream --jobs 8
    mlffi-check link src/glue --jobs 4
    mlffi-check link --dialect jni src/native --format sarif
    mlffi-check serve src/glue --cache-dir .mlffi-cache
    mlffi-check serve src/glue --tcp 127.0.0.1:9178 --workers 8
    mlffi-check serve src/glue --tcp 0.0.0.0:9178 --reuse-port \\
        --cache-dir /var/cache/mlffi
    mlffi-check watch src/glue --interval 1
    mlffi-check rules [--dialect rust] [--format json]
    mlffi-check conformance src/glue --dialect rust --format sarif
    mlffi-check bench [--program lablgtk-2.2.0]
    mlffi-check warmup [src/glue] [--dialect rust] [--format json]
    mlffi-check example
    mlffi-check --version

``check`` analyzes a multi-lingual project and prints the diagnostics plus
the Figure 9 style tally; the exit status is the number of errors (capped
at 125 so it stays a valid exit code; ``--strict`` makes warnings count
too).  ``batch`` sweeps a directory tree — every ``.ml``/``.mli`` feeds
the shared type repository, every ``.c`` is an independently analyzed (and
content-hash cached) translation unit fanned out across a worker pool.
``batch --link`` follows the sweep with the whole-program link pass
(cross-unit ``LINK_*`` diagnostics over per-unit interface summaries);
``--stream`` bounds the in-flight window, so RSS stays flat on 10k–100k
unit corpora, and prints JSON lines.  ``link`` is the streaming sweep +
link pass as one command.  ``batch``, ``link`` and ``conformance`` run
one sweep driver (:func:`_sweep`) and differ only in rendering.
``serve`` keeps the analysis resident and answers newline-delimited
JSON-RPC on stdio or TCP; ``watch`` polls the tree and incrementally
re-checks on every change.  ``rules`` lists the stable rule registry
(every diagnostic kind's public ID, severity, and guideline provenance;
see :mod:`repro.rules`); ``conformance`` sweeps and links a corpus like
``link`` but reports *by rule* — every rule of the dialect's pack (and
the link pack) with its finding count and pass/fail status, the shape
a safety-guideline audit wants.  ``bench`` regenerates the Figure 9
table from the synthesized suite.  ``warmup`` precomputes the seed
artifacts (static tables and, given a corpus root, parsed host
interfaces) so cold workers load pickles instead of re-deriving them
(see :mod:`repro.seeds`).  ``example`` runs the paper's Figure 2
program as a smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import __version__
from .api import Project
from .boundary import UNIT_SUFFIXES, available_dialects, get_dialect
from .core.exprs import Options
from .corpus import iter_tree
from .engine import (
    DEFAULT_CACHE_DIR,
    DEFAULT_MAX_ENTRIES,
    CheckRequest,
    IncrementalEngine,
    NullCache,
    ResultCache,
    StreamStats,
    render_unit,
    stream_batch,
)
from .rules import REGISTRY as RULE_REGISTRY
from .rules import rules_pack
from .sarif import batch_sarif_log, sarif_log
from .server.async_daemon import DEFAULT_MAX_QUEUE, DEFAULT_WORKERS
from .source import SourceFile
from .telemetry import (
    REGISTRY,
    Exposition,
    JsonLogger,
    Tracer,
    aggregate_phases,
    install,
    set_metrics_enabled,
    span,
    uninstall,
    write_trace,
)


def _add_dialect_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--dialect",
        choices=available_dialects(),
        default="ocaml",
        help="boundary dialect to check (default: ocaml)",
    )


def _add_ablation_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--no-flow-sensitive",
        action="store_true",
        help="disable B/I/T dataflow (ablation)",
    )
    command.add_argument(
        "--no-gc-effects",
        action="store_true",
        help="disable GC effect checking (ablation)",
    )


def _add_cache_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--cache-dir",
        "--shared-store",
        dest="cache_dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help="result cache location, safe for many daemon replicas and "
        f"batch runs to share (default: {DEFAULT_CACHE_DIR})",
    )
    command.add_argument(
        "--no-cache",
        action="store_true",
        help="analyze every unit from scratch and store nothing",
    )
    command.add_argument(
        "--cache-max-entries",
        type=int,
        default=DEFAULT_MAX_ENTRIES,
        metavar="N",
        help="LRU cap on cache entries; 0 disables the cap "
        f"(default: {DEFAULT_MAX_ENTRIES})",
    )


def _add_profile_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="wrap the analysis in cProfile and print the top-25 "
        "cumulative-time entries to stderr (or write them to PATH)",
    )


def _profiled(args: argparse.Namespace, run):
    """Run ``run()`` under cProfile when ``--profile`` was given.

    Stats go to stderr (or PATH) so machine-readable stdout formats stay
    parseable; future perf work starts from a profile, not guesswork.
    """
    profile = getattr(args, "profile", None)
    if profile is None:
        return run()
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return run()
    finally:
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
        text = stream.getvalue()
        if profile == "-":
            sys.stderr.write(text)
        else:
            Path(profile).write_text(text)
            print(f"profile written to {profile}", file=sys.stderr)


def _add_strict_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--strict",
        action="store_true",
        help="warnings also fail the run (count toward the exit status)",
    )


def _add_jobs_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (0 = auto-detect; default: 1, sequential)",
    )


def _add_telemetry_flags(
    command: argparse.ArgumentParser, *, metrics: bool = True
) -> None:
    command.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record phase-level spans and write a Chrome trace_event "
        "JSON file (load it in Perfetto or chrome://tracing)",
    )
    if metrics:
        command.add_argument(
            "--metrics-out",
            default=None,
            metavar="FILE",
            help="enable the metrics registry and write a Prometheus "
            "text exposition to FILE when the run finishes",
        )


def _add_sweep_flags(
    command: argparse.ArgumentParser,
    directory_help: str,
    *,
    telemetry: bool = True,
) -> None:
    """The flags every corpus sweep (``batch``, ``link``,
    ``conformance``) shares, in their ``--help`` order."""
    command.add_argument("directory", help=directory_help)
    _add_dialect_flag(command)
    _add_jobs_flag(command)
    _add_cache_flags(command)
    _add_strict_flag(command)
    if telemetry:
        _add_profile_flag(command)
        _add_telemetry_flags(command)


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace):
    """Install whatever surfaces the telemetry flags asked for.

    Yields the process-global :class:`Tracer` (``None`` without
    ``--trace-out``).  With no flags this is a no-op — the hooks in the
    analysis stay on their disabled fast path and output is untouched.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    tracer = Tracer() if trace_out else None
    if tracer is not None:
        install(tracer)
    if metrics_out:
        # the exposition describes THIS run, not whatever an embedding
        # process (tests, notebooks) pushed before it
        REGISTRY.reset()
        set_metrics_enabled(True)
    try:
        yield tracer
    finally:
        if tracer is not None:
            uninstall()
            write_trace(trace_out, tracer.export())
        if metrics_out:
            set_metrics_enabled(False)


def _write_metrics(
    path: str, cache=None, run_stats: Optional[dict] = None
) -> None:
    """Prometheus exposition for one CLI run: the pushed registry plus
    snapshot families (cold-tier cache stats, run totals)."""
    exposition = Exposition(REGISTRY)
    if cache is not None and hasattr(cache, "stats"):
        exposition.add_stats(
            "mlffi_cache",
            cache.stats(),
            kind="counter",
            tier=getattr(cache, "tier", "disk"),
        )
    if run_stats:
        exposition.add_stats("mlffi_run", run_stats, kind="gauge")
    Path(path).write_text(exposition.render(), encoding="utf-8")


def _telemetry_stanza(tracer: Optional[Tracer]) -> Optional[dict]:
    """The per-phase breakdown JSON reports carry when tracing is on."""
    if tracer is None:
        return None
    return {"phases": aggregate_phases(tracer.export())}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlffi-check",
        description="Multi-lingual type inference for the OCaml-to-C FFI "
        "(reproduction of Furr & Foster, PLDI 2005)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"mlffi-check {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="analyze host + C sources")
    check.set_defaults(run=_run_check)
    check.add_argument(
        "files",
        nargs="+",
        help="host sources (.ml/.mli for the ocaml dialect) feed the type "
        "repository; .c files are analyzed",
    )
    _add_dialect_flag(check)
    _add_ablation_flags(check)
    _add_strict_flag(check)
    _add_profile_flag(check)
    _add_telemetry_flags(check)
    check.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (sarif feeds GitHub code scanning)",
    )
    check.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )
    check.add_argument(
        "--signatures",
        action="store_true",
        help="also print the inferred multi-lingual signatures",
    )

    batch = sub.add_parser(
        "batch",
        help="analyze every translation unit under a directory, in parallel "
        "and with content-hash caching",
    )
    batch.set_defaults(run=_run_batch)
    _add_sweep_flags(
        batch,
        "root to scan: host sources feed the shared type repository, "
        "each .c file becomes one translation unit",
    )
    batch.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (json is one report object, sarif feeds "
        "GitHub code scanning)",
    )
    batch.add_argument(
        "--link",
        action="store_true",
        help="after the sweep, link every unit's interface summary and "
        "report cross-unit inconsistencies (LINK_* diagnostics)",
    )
    batch.add_argument(
        "--stream",
        action="store_true",
        help="bounded-memory pipeline: load, check, summarize and discard "
        "units under a fixed in-flight window instead of materializing "
        "the whole corpus (text output streams per-unit blocks; json "
        "becomes JSON-lines; sarif is unavailable)",
    )
    batch.add_argument(
        "--window",
        type=int,
        default=0,
        metavar="N",
        help="in-flight unit bound for --stream (0 = 4x jobs)",
    )
    _add_ablation_flags(batch)

    link = sub.add_parser(
        "link",
        help="whole-program boundary link: stream-check a corpus, union "
        "its per-unit interface summaries, and report cross-unit "
        "inconsistencies (conflicting declarations, duplicate "
        "registrations, unresolved externs)",
    )
    link.set_defaults(run=_run_link)
    _add_sweep_flags(link, "corpus root to scan, check, and link")
    _add_ablation_flags(link)
    link.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (json reports stream stats + the link "
        "report; sarif carries the cross-unit diagnostics)",
    )
    link.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-unit blocks; print only the link report",
    )
    link.add_argument(
        "--window",
        type=int,
        default=0,
        metavar="N",
        help="in-flight unit bound for the streaming sweep (0 = 4x jobs)",
    )

    serve = sub.add_parser(
        "serve",
        help="persistent analysis daemon: newline-delimited JSON-RPC over "
        "stdio (default) or TCP, re-checking only what changed",
    )
    serve.set_defaults(run=_run_serve)
    serve.add_argument(
        "directory",
        help="project root the resident engine keeps warm",
    )
    _add_dialect_flag(serve)
    _add_jobs_flag(serve)
    _add_cache_flags(serve)
    _add_ablation_flags(serve)
    _add_telemetry_flags(serve, metrics=False)
    serve.add_argument(
        "--log-json",
        default=None,
        metavar="FILE",
        help="append one JSON event per served request to FILE (async "
        "TCP daemon only): method, id, outcome, duration, coalesce role",
    )
    serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help="listen on TCP instead of stdio (e.g. 127.0.0.1:9178; "
        "port 0 picks a free port)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        metavar="N",
        help="analysis worker threads for the async TCP daemon "
        f"(default: {DEFAULT_WORKERS})",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=DEFAULT_MAX_QUEUE,
        metavar="N",
        help="computations allowed to queue beyond the workers before "
        "the daemon sheds requests with an OVERLOADED error "
        f"(default: {DEFAULT_MAX_QUEUE})",
    )
    serve.add_argument(
        "--reuse-port",
        action="store_true",
        help="set SO_REUSEPORT so several daemon replicas can share one "
        "port (pair with one --cache-dir for a fleet-wide warm cache)",
    )

    watch = sub.add_parser(
        "watch",
        help="poll the tree and incrementally re-check on every change",
    )
    watch.set_defaults(run=_run_watch)
    watch.add_argument(
        "directory",
        help="project root to watch",
    )
    _add_dialect_flag(watch)
    _add_jobs_flag(watch)
    _add_cache_flags(watch)
    _add_ablation_flags(watch)
    watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="polling interval (default: 1.0)",
    )
    watch.add_argument(
        "--max-polls",
        type=int,
        default=0,
        metavar="N",
        help="stop after N polls (0 = run until interrupted)",
    )

    rules = sub.add_parser(
        "rules",
        help="list the stable rule registry: every diagnostic kind's "
        "public ID, default severity, summary, and guideline provenance",
    )
    rules.set_defaults(run=_run_rules)
    rules.add_argument(
        "--dialect",
        choices=RULE_REGISTRY.dialects(),
        default=None,
        help="show only one pack (default: every pack, the paper's own "
        "taxonomy is the `ocaml` pack, cross-unit rules the `link` pack)",
    )
    rules.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )

    conformance = sub.add_parser(
        "conformance",
        help="sweep + link a corpus and report BY RULE: every rule of "
        "the dialect's pack (plus the link pack) with its finding count "
        "and pass/fail status",
    )
    conformance.set_defaults(run=_run_conformance)
    _add_sweep_flags(
        conformance,
        "corpus root to scan, check, link, and audit",
        telemetry=False,
    )
    _add_ablation_flags(conformance)
    conformance.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (sarif carries every grouped finding with "
        "registry rule metadata)",
    )
    conformance.add_argument(
        "--window",
        type=int,
        default=0,
        metavar="N",
        help="in-flight unit bound for the streaming sweep (0 = 4x jobs)",
    )

    bench = sub.add_parser("bench", help="regenerate the Figure 9 table")
    bench.set_defaults(run=_run_bench)
    bench.add_argument(
        "--program", help="run a single benchmark by name", default=None
    )
    bench.add_argument(
        "--compare",
        action="store_true",
        help="print the paper-vs-measured comparison table",
    )

    warmup = sub.add_parser(
        "warmup",
        help="precompute seed artifacts so fresh workers load instead of "
        "rebuilding",
    )
    warmup.set_defaults(run=_run_warmup)
    warmup.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="corpus root: host sources found here are parsed once and "
        "their interfaces stored as seed artifacts",
    )
    _add_dialect_flag(warmup)
    warmup.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )

    example = sub.add_parser("example", help="run the paper's Figure 2 example")
    example.set_defaults(run=_run_example)
    return parser


def _exit_code(tally: dict, strict: bool) -> int:
    """Exit-status contract: errors always fail; warnings only when
    ``--strict`` asked for them.  Capped at 125 (a valid exit code)."""
    failing = tally["errors"]
    if strict:
        failing += tally["warnings"]
    return min(failing, 125)


def _make_cache(args: argparse.Namespace):
    """The cold-tier cache the flags describe."""
    if args.no_cache:
        return NullCache()
    max_entries = args.cache_max_entries if args.cache_max_entries > 0 else None
    return ResultCache(args.cache_dir, max_entries=max_entries)


def _options(args: argparse.Namespace) -> Options:
    """The analysis options the ``--no-*`` flags describe."""
    return Options(
        flow_sensitive=not args.no_flow_sensitive,
        gc_effects=not args.no_gc_effects,
    )


def _run_check(args: argparse.Namespace) -> int:
    dialect = get_dialect(args.dialect)
    project = Project(dialect=dialect.name)
    for name in args.files:
        path = Path(name)
        if not path.exists():
            print(f"error: no such file: {name}", file=sys.stderr)
            return 125
        source = SourceFile(str(path), path.read_text())
        if path.suffix in dialect.host_suffixes:
            project.add_ocaml(source)
        elif path.suffix in UNIT_SUFFIXES:
            project.add_c(source)
        else:
            wanted = "/".join(dialect.host_suffixes + UNIT_SUFFIXES)
            print(
                f"error: unknown extension on {name} for dialect "
                f"{dialect.name} (want {wanted})",
                file=sys.stderr,
            )
            return 125
    with _telemetry(args) as tracer:

        def run():
            # the single-shot path runs in-process, so phase spans land
            # on the installed tracer directly; the unit span is ours
            with span("<project>", cat="unit", dialect=args.dialect):
                return project.analyze(_options(args))

        report = _profiled(args, run)
        if args.metrics_out:
            _write_metrics(
                args.metrics_out,
                run_stats={
                    "elapsed_seconds": report.elapsed_seconds,
                    "unification_steps": report.unification_steps,
                    **{
                        f"diag_{column}": count
                        for column, count in report.tally().items()
                    },
                },
            )
    if args.format == "sarif":
        log = sarif_log(report.diagnostics, tool_version=__version__)
        print(json.dumps(log, indent=2, sort_keys=True))
    elif args.format == "json":
        payload = {
            "diagnostics": [d.to_dict() for d in report.diagnostics],
            "tally": report.tally(),
            "signatures": dict(report.signatures),
            "unification_steps": report.unification_steps,
            "elapsed_seconds": report.elapsed_seconds,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.quiet:
        print(report.render().splitlines()[-1])
    else:
        print(report.render())
        if args.signatures:
            print()
            print("inferred signatures:")
            for name in sorted(report.signatures):
                print("  " + report.signatures[name])
    return _exit_code(report.tally(), args.strict)


class _Swept(NamedTuple):
    """What one corpus sweep leaves for its command to render."""

    stats: StreamStats
    link: Optional["LinkReport"]
    telemetry: Optional[dict]
    code: int

    def document(self, doc: dict) -> dict:
        """``doc`` plus the link and telemetry stanzas, where present."""
        if self.link is not None:
            doc["link"] = self.link.to_dict()
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry
        return doc


def _sweep(
    args: argparse.Namespace, phase: str, on_result, *, link: bool = False
) -> Optional[_Swept]:
    """The one corpus sweep behind ``batch``, ``link`` and ``conformance``.

    Scans the tree (hosts eager, units lazy), streams every unit through
    :func:`~repro.engine.stream_batch` inside the ``phase`` span, runs the
    link pass when asked, and writes the metrics the flags asked for.
    ``on_result`` sees each unit once, in order.  The exit code is 125 on
    any unit failure, else the combined tally's.  Returns ``None`` (after
    printing) when the tree holds no ``.c`` path at all; a tree whose
    units were all skipped is a 0-unit sweep, not an error.
    """
    root = Path(args.directory)
    if not root.is_dir():
        print(f"error: no such directory: {args.directory}", file=sys.stderr)
        return None
    scan = iter_tree(root, get_dialect(args.dialect))
    if not len(scan):
        print(
            f"error: no .c translation units under {args.directory}",
            file=sys.stderr,
        )
        return None
    hosts = tuple(scan.hosts)
    options = _options(args)
    cache = _make_cache(args)
    from .linker import Linker

    linker = Linker() if link else None

    def observe(result) -> None:
        if linker is not None and result.failure is None and result.summary:
            linker.add_dict(result.summary)
        on_result(result)

    with _telemetry(args) as tracer:
        requests = (
            CheckRequest(
                name=source.filename,
                c_sources=(source,),
                ocaml_sources=hosts,
                options=options,
                dialect=args.dialect,
                trace=tracer is not None,
            )
            for source in scan.iter_units()
        )

        def run():
            with span(phase, cat="phase"):
                return stream_batch(
                    requests,
                    jobs=args.jobs,
                    cache=cache,
                    on_result=observe,
                    window=args.window or None,
                )

        stats = _profiled(args, run)
        link_report = None
        if linker is not None:
            with span("link", cat="phase"):
                link_report = linker.report()
        if getattr(args, "metrics_out", None):
            run_stats = {**stats.to_dict(), "coalesced": stats.coalesced}
            _write_metrics(args.metrics_out, cache, run_stats=run_stats)
        telemetry = _telemetry_stanza(tracer)
    tally = dict(stats.tally)
    if link_report is not None:
        for column, count in link_report.tally().items():
            tally[column] += count
    code = 125 if stats.failures else _exit_code(tally, args.strict)
    return _Swept(stats, link_report, telemetry, code)


def _run_batch(args: argparse.Namespace) -> int:
    """``batch``: eager (one report) or ``--stream`` (JSON lines)."""
    if args.stream and args.format == "sarif":
        print(
            "error: --stream cannot accumulate a sarif log; "
            "use --format text or json",
            file=sys.stderr,
        )
        return 125
    # only the eager json/sarif documents need every result at once
    results = [] if args.format != "text" and not args.stream else None

    def on_result(result) -> None:
        if results is not None:
            results.append(result)
        elif args.format == "json":
            print(json.dumps(result.to_dict(), sort_keys=True))
        else:
            print("\n".join(render_unit(result)))

    swept = _sweep(args, "batch", on_result, link=args.link)
    if swept is None:
        return 125
    stats, link_report = swept.stats, swept.link
    if args.format == "sarif":
        log = batch_sarif_log(
            stats.batch_report(results),
            tool_version=__version__,
            link_diagnostics=(
                list(link_report.diagnostics) if link_report else ()
            ),
        )
        print(json.dumps(log, indent=2, sort_keys=True))
    elif args.format == "json" and args.stream:
        trailer = swept.document({"stream": stats.to_dict()})
        print(json.dumps(trailer, sort_keys=True))
    elif args.format == "json":
        doc = swept.document(stats.batch_report(results).to_dict())
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.stream:
        if link_report is not None:
            print(link_report.render())
        print(stats.render())
    else:
        print(stats.render())
        if link_report is not None:
            print(link_report.render())
    return swept.code


def _run_link(args: argparse.Namespace) -> int:
    """``mlffi-check link``: stream-check the corpus, then link it."""

    def on_result(result) -> None:
        if args.format == "text" and not args.quiet:
            print("\n".join(render_unit(result)))

    swept = _sweep(args, "link-sweep", on_result, link=True)
    if swept is None:
        return 125
    if args.format == "sarif":
        log = sarif_log(swept.link.diagnostics, tool_version=__version__)
        print(json.dumps(log, indent=2, sort_keys=True))
    elif args.format == "json":
        doc = swept.document({"stream": swept.stats.to_dict()})
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(swept.link.render())
        print(swept.stats.render())
    return swept.code


def _run_rules(args: argparse.Namespace) -> int:
    """``mlffi-check rules``: print the stable rule registry."""
    rules = rules_pack(args.dialect)
    if args.format == "json":
        payload = {"rules": [rule.to_dict() for rule in rules]}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    by_pack: dict[str, list] = {}
    for rule in rules:
        by_pack.setdefault(rule.dialect, []).append(rule)
    for pack, members in by_pack.items():
        print(f"== pack {pack}")
        for rule in members:
            print(
                f"   {rule.id:<28} {rule.category.value:<15} {rule.summary}"
            )
    packs = len(by_pack)
    print(f"-- {len(rules)} rule(s) in {packs} pack(s)")
    return 0


def _conformance_rows(
    dialect: str, fired: dict[str, int]
) -> list[tuple["Rule", int]]:
    """Every rule the audit covers, with its finding count.

    Coverage is the dialect's own pack plus the cross-unit ``link``
    pack; rules that fired from outside both (the shared paper taxonomy
    can fire under any dialect) are appended so no finding is dropped.
    """
    covered = list(rules_pack(dialect))
    covered += rules_pack("link")
    covered_ids = {rule.id for rule in covered}
    for rule_id in sorted(fired):
        if rule_id not in covered_ids:
            covered.append(RULE_REGISTRY.get(rule_id))
    return [(rule, fired.get(rule.id, 0)) for rule in covered]


def _run_conformance(args: argparse.Namespace) -> int:
    """``mlffi-check conformance``: the link sweep, reported by rule."""
    findings: list = []
    swept = _sweep(
        args,
        "conformance-sweep",
        lambda result: findings.extend(result.diagnostics),
        link=True,
    )
    if swept is None:
        return 125
    findings.extend(swept.link.diagnostics)
    fired: dict[str, int] = {}
    for diag in findings:
        fired[diag.rule_id] = fired.get(diag.rule_id, 0) + 1
    rows = _conformance_rows(args.dialect, fired)

    def status(rule, count: int) -> str:
        if not count:
            return "pass"
        if rule.category.value == "error":
            return "fail"
        if rule.category.value == "warning":
            return "fail" if args.strict else "warn"
        return "info"

    if args.format == "sarif":
        log = sarif_log(findings, tool_version=__version__)
        print(json.dumps(log, indent=2, sort_keys=True))
    elif args.format == "json":
        doc = {
            "conformance": {
                "dialect": args.dialect,
                "pack": args.dialect,
                "rules": [
                    {
                        **rule.to_dict(),
                        "findings": count,
                        "status": status(rule, count),
                    }
                    for rule, count in rows
                ],
            },
            "stream": swept.stats.to_dict(),
        }
        print(json.dumps(swept.document(doc), indent=2, sort_keys=True))
    else:
        print(f"== conformance: {args.directory} (dialect {args.dialect})")
        for rule, count in rows:
            verdict = status(rule, count)
            suffix = f"{count} finding(s)" if count else "-"
            print(f"   {verdict:<4} {rule.id:<28} {suffix}")
        failing = sum(
            1 for rule, count in rows if status(rule, count) == "fail"
        )
        total = sum(count for _rule, count in rows)
        print(
            f"-- conformance: {swept.stats.units} unit(s), {len(rows)} "
            f"rule(s) checked, {failing} failing, {total} finding(s)"
        )
    return swept.code


def _build_engine(args: argparse.Namespace) -> Optional[IncrementalEngine]:
    """The resident engine behind both ``serve`` and ``watch``."""
    root = Path(args.directory)
    if not root.is_dir():
        print(f"error: no such directory: {args.directory}", file=sys.stderr)
        return None
    return IncrementalEngine(
        root,
        dialect=args.dialect,
        options=_options(args),
        jobs=args.jobs,
        cache=_make_cache(args),
        trace=getattr(args, "trace_out", None) is not None,
    )


def _run_serve(args: argparse.Namespace) -> int:
    from .server import AnalysisService, serve_async_tcp, serve_stdio

    engine = _build_engine(args)
    if engine is None:
        return 125
    service = AnalysisService(engine)
    # the daemon's metrics RPC reads pushed instruments (per-unit
    # latencies, cache probes); serving without them would answer with
    # snapshot counters only, so they stay on for the daemon's lifetime
    set_metrics_enabled(True)
    log = JsonLogger(path=args.log_json) if args.log_json else None
    try:
        with _telemetry(args):
            if args.tcp is None:
                return serve_stdio(service, log=log)
            host, _, port_text = args.tcp.rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                print(
                    f"error: bad --tcp address: {args.tcp}", file=sys.stderr
                )
                return 125
            try:
                return serve_async_tcp(
                    service,
                    host or "127.0.0.1",
                    port,
                    workers=max(1, args.workers),
                    max_queue=max(0, args.max_queue),
                    reuse_port=args.reuse_port,
                    log=log,
                )
            except KeyboardInterrupt:
                return 0
    finally:
        set_metrics_enabled(False)
        if log is not None:
            log.close()


def _run_watch(args: argparse.Namespace) -> int:
    from .server import WatchEvent, Watcher

    engine = _build_engine(args)
    if engine is None:
        return 125
    # snapshot BEFORE the (potentially long) initial check: an edit made
    # while it runs must show up as a diff on the first poll
    watcher = Watcher(engine, interval=args.interval)
    initial = engine.check()
    print(initial.render(), flush=True)

    def on_event(event: WatchEvent) -> None:
        changed = ", ".join(Path(path).name for path in event.changed)
        print(f"\n== change: {changed}", flush=True)
        print(event.report.render(), flush=True)
        ran = len(event.report.ran)
        print(
            f"   re-ran {ran} unit(s), reused {event.report.reused}",
            flush=True,
        )

    try:
        watcher.run(
            max_polls=args.max_polls if args.max_polls > 0 else None,
            on_event=on_event,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from .bench.report import comparison_table, figure9_table
    from .bench.runner import SuiteResult, run_benchmark, run_suite
    from .bench.specs import SUITE, spec_by_name

    if args.program is not None:
        try:
            spec = spec_by_name(args.program)
        except KeyError:
            names = ", ".join(s.name for s in SUITE)
            print(
                f"error: unknown benchmark `{args.program}` (one of: {names})",
                file=sys.stderr,
            )
            return 125
        suite = SuiteResult(results=[run_benchmark(spec)])
    else:
        suite = run_suite()
    print(figure9_table(suite))
    if args.compare:
        print()
        print(comparison_table(suite))
    return 0


_EXAMPLE_ML = """
type t = A of int | B | C of int * int | D
external examine : t -> int = "ml_examine"
"""

_EXAMPLE_C = """
value ml_examine(value x)
{
    int result = 0;
    if (Is_long(x)) {
        switch (Int_val(x)) {
        case 0: result = 1; break;
        case 1: result = 2; break;
        }
    } else {
        switch (Tag_val(x)) {
        case 0: result = Int_val(Field(x, 0)); break;
        case 1: result = Int_val(Field(x, 1)); break;
        }
    }
    return Val_int(result);
}
"""


def _run_example(args: argparse.Namespace) -> int:
    project = Project().add_ocaml(_EXAMPLE_ML).add_c(_EXAMPLE_C)
    report = project.analyze()
    print("Figure 2 example (correct tag dispatch):")
    print(report.render())
    return min(len(report.errors), 125)


def _run_warmup(args: argparse.Namespace) -> int:
    """Build the seed artifacts ahead of time (``mlffi-check warmup``).

    Always writes the static-table bundle; with a corpus directory it
    also parses the dialect's host sources and stores the interface
    artifact, so the first real sweep loads instead of re-deriving.
    """
    from . import seeds

    report: dict = {
        "seed_dir": str(seeds.seed_dir()),
        "artifacts_enabled": seeds.artifacts_enabled(),
        "registry_fingerprint": seeds.registry_fingerprint(),
        "static": seeds.warmup_static(),
        "hosts": None,
    }
    if args.directory is not None:
        root = Path(args.directory)
        if not root.is_dir():
            print(f"error: no such directory: {args.directory}", file=sys.stderr)
            return 125
        # the sweep's own host set, so the artifact is the one it asks for
        host_sources = tuple(iter_tree(root, get_dialect(args.dialect)).hosts)
        report["hosts"] = seeds.warmup_hosts(args.dialect, host_sources)
    report["pruned"] = seeds.prune_artifacts()
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0
    print(f"seed dir:    {report['seed_dir']}")
    print(f"artifacts:   {'on' if report['artifacts_enabled'] else 'off'}")
    print(f"registry:    {report['registry_fingerprint'][:16]}")
    static = report["static"]
    print(
        f"static:      {static['tables']} table(s) "
        f"({'stored' if static['stored'] else 'not stored'})"
    )
    hosts = report["hosts"]
    if hosts is not None:
        if hosts["fingerprint"]:
            print(
                f"hosts:       {hosts['hosts']} {args.dialect} source(s), "
                f"fingerprint {hosts['fingerprint'][:16]}"
            )
        else:
            print(f"hosts:       no {args.dialect} host sources found")
    if report["pruned"]:
        print(f"pruned:      {report['pruned']} old artifact(s)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
