"""Persistent analysis service.

A long-running daemon around :class:`repro.engine.IncrementalEngine`:
ASTs, dialect environments, and typed-unit results stay warm in memory,
and clients drive re-checking over a newline-delimited JSON-RPC protocol
(:mod:`repro.server.protocol`) on stdio (:mod:`repro.server.daemon`) or
TCP, where the asyncio daemon (:mod:`repro.server.async_daemon`) adds
request coalescing (:mod:`repro.server.coalesce`) and load shedding.
:mod:`repro.server.watch` is a polling file-watcher that feeds the same
engine, and :class:`repro.api.Session` wraps the service for library
users.
"""

from .async_daemon import (
    DEFAULT_MAX_QUEUE,
    DEFAULT_WORKERS,
    serve_async_tcp,
)
from .coalesce import CheckCoalescer
from .daemon import serve_stdio
from .protocol import (
    OVERLOADED,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode,
    encode_fragment,
    error_response,
    result_response,
    splice_result,
)
from .service import AnalysisService, LoadGauge, Overloaded
from .watch import WatchEvent, Watcher

__all__ = [
    "AnalysisService",
    "CheckCoalescer",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_WORKERS",
    "LoadGauge",
    "OVERLOADED",
    "Overloaded",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WatchEvent",
    "Watcher",
    "decode_line",
    "encode",
    "encode_fragment",
    "error_response",
    "result_response",
    "serve_async_tcp",
    "serve_stdio",
    "splice_result",
]
