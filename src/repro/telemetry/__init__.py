"""Zero-dependency tracing + metrics for every layer of the checker.

Three small pieces, all stdlib-only and all no-op-cheap when disabled:

:mod:`~repro.telemetry.spans`
    A context-local :class:`~repro.telemetry.spans.Tracer` recording
    nested spans (batch → unit → parse/lower/infer…; server → request →
    engine/encode) with monotonic durations, exportable as Chrome
    ``trace_event`` JSON for ``chrome://tracing`` / Perfetto.  Spans
    recorded inside worker processes ride back on
    :class:`~repro.engine.jobs.CheckResult` and are absorbed into the
    parent tracer, so multiprocessing and streaming runs produce one
    coherent trace.
:mod:`~repro.telemetry.metrics`
    A process-wide registry of counters/gauges/histograms with a
    Prometheus text exposition, plus :class:`Exposition` for rendering
    pull-style snapshots (cache-tier stats, load gauge, coalescer) next
    to the pushed instruments.
:mod:`~repro.telemetry.jsonlog`
    A line-oriented structured JSON event logger for the async daemon
    (one object per request: id, method, outcome, duration, coalesce
    role).

The cardinal rule is that **disabled telemetry must cost nothing
measurable**: ``span(...)`` with no tracer installed is one module-flag
check plus one ``ContextVar`` read (the telemetry-off gate in
``benchmarks/bench_cold.py`` bounds it below 2% of a cold sweep), and
every metrics helper bails on a single module flag before touching the
registry.
"""

from .jsonlog import JsonLogger
from .metrics import (
    REGISTRY,
    Exposition,
    MetricsRegistry,
    metrics_enabled,
    set_metrics_enabled,
)
from .spans import (
    Span,
    Tracer,
    aggregate_phases,
    current_tracer,
    install,
    set_hooks_enabled,
    span,
    uninstall,
    use,
    write_trace,
)

__all__ = [
    "JsonLogger",
    "REGISTRY",
    "Exposition",
    "MetricsRegistry",
    "metrics_enabled",
    "set_metrics_enabled",
    "Span",
    "Tracer",
    "aggregate_phases",
    "current_tracer",
    "install",
    "set_hooks_enabled",
    "span",
    "uninstall",
    "use",
    "write_trace",
]
