"""The stdio transport for the analysis service.

``serve_stdio`` serves one client on stdin/stdout — what editors and the
CI smoke job drive — speaking the newline-delimited protocol of
:mod:`repro.server.protocol`.  TCP clients go to the asyncio transport
in :mod:`repro.server.async_daemon` (``mlffi-check serve --tcp``).
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO, Optional

from ..telemetry import JsonLogger, current_tracer, span
from .service import AnalysisService


def handle_line_logged(
    service: AnalysisService, line: str, log: Optional[JsonLogger]
) -> Optional[str]:
    """``service.handle_line`` plus the per-request telemetry the stdio
    transport owes: a ``--log-json`` event and a ``request`` span.

    The stdio transport has no request metadata of its own (unlike
    the asyncio daemon, whose dispatcher also knows the coalescing
    outcome), so the event is reconstructed from the wire frames: the
    request supplies ``id``/``method``, the response supplies
    ``outcome`` (and ``code`` on errors).  With neither a log nor a
    tracer the frame passes straight through.
    """
    if not line.strip() or (log is None and current_tracer() is None):
        return service.handle_line(line)
    event: dict = {"event": "request", "id": None, "method": None}
    try:
        frame = json.loads(line)
        event["id"] = frame.get("id")
        event["method"] = frame.get("method")
    except ValueError:
        pass
    started = time.perf_counter()
    with span(event["method"] or "?", cat="request"):
        response = service.handle_line(line)
    if log is None:
        return response
    error = None
    if response is not None:
        try:
            error = json.loads(response).get("error")
        except ValueError:
            pass
    if error is not None:
        event["outcome"] = "error"
        event["code"] = error.get("code")
    else:
        event["outcome"] = "ok"
    event["duration_ms"] = round((time.perf_counter() - started) * 1e3, 3)
    log.emit(event)
    return response


def serve_stdio(
    service: AnalysisService,
    stdin: Optional[IO[str]] = None,
    stdout: Optional[IO[str]] = None,
    *,
    log: Optional[JsonLogger] = None,
) -> int:
    """Serve one client over text streams until EOF or ``shutdown``."""
    reader = stdin if stdin is not None else sys.stdin
    writer = stdout if stdout is not None else sys.stdout
    try:
        for line in reader:
            response = handle_line_logged(service, line, log)
            if response is not None:
                writer.write(response)
                writer.flush()
            if service.shutdown_requested.is_set():
                break
    except (BrokenPipeError, KeyboardInterrupt):
        pass  # client hung up / operator interrupt: a clean daemon exit
    return 0
