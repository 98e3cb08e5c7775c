"""Per-unit analysis entry points, safe to run inside worker processes.

Everything here is reachable from a module-level name (a requirement of
``multiprocessing`` pickling) and depends only on the contents of the
:class:`~repro.engine.jobs.CheckRequest` it is handed — no ambient state
crosses the process boundary.  The request's ``dialect`` names the
boundary dialect that interprets it; phase one (``Γ_I``) and phase two
(lower + infer) both run in :func:`repro.boundary.run_pipeline` behind
:meth:`repro.boundary.BoundaryDialect.analyze`, so the engine schedules
every dialect identically.

Dialects memoize what is profitably shared per process (the OCaml dialect
memoizes its type repository and name index by content fingerprint);
``Γ_I`` itself is rebuilt per unit, from only the host entries the unit
names, so fresh inference variables never leak between units (the
unifier must not see another unit's bindings).
"""

from __future__ import annotations

import time
from typing import Optional

from ..boundary import get_dialect
from ..core.checker import AnalysisReport
from ..telemetry import Tracer, use
from .jobs import CheckRequest, CheckResult


def analyze_request(request: CheckRequest) -> AnalysisReport:
    """Run both phases for one unit and return the full in-process report."""
    return get_dialect(request.dialect).analyze(request)


def _run_request(request: CheckRequest, key: str) -> CheckResult:
    started = time.perf_counter()
    try:
        report = analyze_request(request)
    except Exception as exc:  # noqa: BLE001 - one bad unit must not kill the batch
        return CheckResult(
            name=request.name,
            cache_key=key,
            wall_seconds=time.perf_counter() - started,
            failure=f"{type(exc).__name__}: {exc}",
        )
    result = CheckResult.from_report(request.name, report, cache_key=key)
    result.wall_seconds = time.perf_counter() - started
    return result


def run_request(
    request: CheckRequest, cache_key: Optional[str] = None
) -> CheckResult:
    """Worker entry point: analyze one unit, flattened for the wire.

    Analysis crashes (lexer/parser/lowering defects in user input) become a
    ``failure`` on the result rather than poisoning the whole pool.

    A traced request (``request.trace``) records its phase spans into a
    fresh per-request tracer — never the process-global one — so the
    events can ride back on ``result.trace_events`` through the pickle
    boundary and be absorbed into the parent's timeline.
    """
    key = cache_key if cache_key is not None else request.cache_key()
    if not request.trace:
        return _run_request(request, key)
    tracer = Tracer()
    with use(tracer):
        with tracer.span(
            request.name, cat="unit", args={"dialect": request.dialect}
        ):
            result = _run_request(request, key)
    result.trace_events = tracer.export()
    return result
