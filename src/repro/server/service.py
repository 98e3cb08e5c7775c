"""Method dispatch for the analysis service.

:class:`AnalysisService` owns one :class:`~repro.engine.IncrementalEngine`
and maps protocol methods onto it.  It is transport-agnostic: the stdio
loop calls :meth:`handle_line`, the asyncio daemon calls
:meth:`check_key`, the coalescer and :meth:`lead_check` itself for
``check`` (and :meth:`handle_request` for the rest), and in-process users
(:class:`repro.api.Session`) call :meth:`handle` with plain dicts.

Methods:

``ping``
    Liveness probe; returns the protocol version and corpus size.
``check``
    Incremental re-check.  Optional ``units`` (list of paths) restricts
    the submission.  The result is the full-corpus report dict plus an
    ``incremental`` stanza saying which units were submitted (*checked*),
    which really re-analyzed (*ran*), how many were served from resident
    state (*reused*), and which dirty units a restricted check skipped —
    their rows are pre-edit results (*stale*).

    ``check`` is **coalesced** (:mod:`repro.server.coalesce`): identical
    concurrent requests share one computation, and repeat requests at an
    unchanged engine revision replay the memoized encoded result, as does
    the first re-check after an edit.  The coalesced response is
    byte-identical to an uncoalesced one except for the echoed ``id``
    (timing fields replay the leader's values).

    Optional ``link: true`` also runs the whole-program link pass over
    the corpus's interface summaries and attaches its report as a
    ``link`` stanza (the params participate in the coalescing key, so
    linked and unlinked checks never share a memo).
``link``
    Bring the corpus up to date, then union every unit's
    :class:`~repro.linker.summary.InterfaceSummary` and report cross-unit
    inconsistencies (``LINK_*`` kinds).  Returns the full check report
    with the ``link`` stanza — the same shape as ``check`` with
    ``link: true``.
``invalidate``
    ``paths`` (required list) were created/edited/deleted; re-reads them
    and returns the affected unit names.  Dirty units re-check on the
    next ``check``.
``status``
    Engine introspection: units, dirty set, cache-tier statistics, plus
    ``server`` (queue depth / shed counters, fed by the transport) and
    ``coalescing`` stanzas.
``rules``
    The stable rule registry (:mod:`repro.rules`).  Optional ``dialect``
    restricts the listing to one pack; unknown packs are an
    ``INVALID_PARAMS`` error.  Pure metadata — never touches the engine,
    so IDE clients can populate severity maps before the first check.
``shutdown``
    Acknowledges, then makes the transport loop exit.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Optional

from .. import seeds
from ..engine import IncrementalEngine
from ..rules import REGISTRY as RULE_REGISTRY
from ..rules import rules_pack
from ..telemetry import Exposition, span
from ..telemetry.metrics import PROM_CONTENT_TYPE, REGISTRY
from . import protocol
from .coalesce import CheckCoalescer, InflightEntry


class LoadGauge:
    """Backpressure bookkeeping shared by service and transport.

    The asyncio daemon acquires a slot per computation it dispatches to
    its worker pool; when ``limit`` (workers + queue allowance) is
    exhausted the request is *shed* with a
    :data:`~repro.server.protocol.OVERLOADED` error instead of piling
    onto an unbounded queue.  ``status`` surfaces the counters so a
    load balancer can watch saturation without provoking it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: concurrent computation cap; ``None`` = unbounded (the stdio
        #: transport serves one request at a time)
        self.limit: Optional[int] = None
        self.workers = 0
        self.max_queue = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.shed = 0
        self.served = 0

    def configure(self, workers: int, max_queue: int) -> None:
        with self._lock:
            self.workers = workers
            self.max_queue = max_queue
            self.limit = workers + max_queue

    def try_acquire(self) -> bool:
        """Claim a computation slot; False means shed this request."""
        with self._lock:
            if self.limit is not None and self.in_flight >= self.limit:
                self.shed += 1
                return False
            self.in_flight += 1
            if self.in_flight > self.peak_in_flight:
                self.peak_in_flight = self.in_flight
            return True

    def release(self) -> None:
        with self._lock:
            self.in_flight -= 1
            self.served += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "max_queue": self.max_queue,
                "queue_depth": max(0, self.in_flight - self.workers),
                "in_flight": self.in_flight,
                "peak_in_flight": self.peak_in_flight,
                "shed": self.shed,
                "served": self.served,
            }


class Overloaded(Exception):
    """Raised internally when the daemon sheds a request."""

    def __init__(self, gauge: LoadGauge):
        self.data = gauge.snapshot()
        super().__init__(
            "server overloaded: analysis queue is full "
            f"({self.data['in_flight']} in flight, "
            f"limit {self.data['workers']} workers "
            f"+ {self.data['max_queue']} queued)"
        )


class AnalysisService:
    """One resident engine behind a JSON-RPC method table."""

    #: how long a coalescing follower waits on its leader before giving
    #: up; generous — a leader holds the engine lock at most one check
    FOLLOWER_TIMEOUT_S = 600.0

    def __init__(self, engine: IncrementalEngine):
        self.engine = engine
        self.shutdown_requested = threading.Event()
        self.coalescer = CheckCoalescer()
        self.load = LoadGauge()
        self.started_monotonic = time.monotonic()
        self._methods = {
            "ping": self._ping,
            "check": self._check,
            "link": self._link,
            "invalidate": self._invalidate,
            "status": self._status,
            "metrics": self._metrics,
            "rules": self._rules,
            "shutdown": self._shutdown,
        }

    # -- dispatch -------------------------------------------------------------

    def handle_line(self, line: str) -> Optional[str]:
        """Serve one wire frame; blank lines are ignored (returns None).

        ``check`` frames take the coalesced path (:meth:`check_line`);
        other methods dispatch normally.  The stdio transport serves
        every frame here; the asyncio daemon runs the coalescing steps
        itself so it can answer memo hits without a thread handoff."""
        if not line.strip():
            return None
        try:
            request = protocol.decode_line(line)
        except protocol.ProtocolError as exc:
            return protocol.encode(
                protocol.error_response(None, exc.code, str(exc))
            )
        if request.method == "check":
            return self.check_line(request)
        return protocol.encode(self.handle_request(request))

    def handle(self, line: str) -> dict:
        """Decode, dispatch, and build the response object for one frame.

        This is the un-coalesced path (in-process users who want plain
        dicts); the stdio transport goes through :meth:`handle_line`."""
        try:
            request = protocol.decode_line(line)
        except protocol.ProtocolError as exc:
            return protocol.error_response(None, exc.code, str(exc))
        return self.handle_request(request)

    def handle_request(self, request: protocol.Request) -> dict:
        """Dispatch one decoded request to its method handler."""
        method = self._methods.get(request.method)
        if method is None:
            return protocol.error_response(
                request.id,
                protocol.METHOD_NOT_FOUND,
                f"unknown method `{request.method}` "
                f"(known: {', '.join(sorted(self._methods))})",
            )
        try:
            result = method(request.params)
        except protocol.ProtocolError as exc:
            return protocol.error_response(request.id, exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - must not kill the daemon
            return protocol.error_response(
                request.id,
                protocol.INTERNAL_ERROR,
                f"{type(exc).__name__}: {exc}",
            )
        return protocol.result_response(request.id, result)

    # -- coalesced check ------------------------------------------------------

    def check_key(self, params: dict) -> tuple:
        """Coalescing key: params digest at the current engine revision.

        Reading the revision *before* the lookup is the safety argument:
        a memo filed under this key encodes state at least as new as the
        revision, so coalesced responses are never staler than an
        uncoalesced check issued at the same moment.  The one memo filed
        under a later revision than its computation was keyed at (the
        settled response, see :meth:`lead_check`) encodes exactly the
        state at that revision, which the engine read under its lock."""
        self._validate_check_params(params)
        digest = hashlib.sha256(
            protocol.encode_fragment(params).encode("utf-8")
        ).hexdigest()
        return (digest, self.engine.revision)

    def check_line(self, request: protocol.Request) -> str:
        """One coalesced ``check``: blocking form for sync transports."""
        try:
            key = self.check_key(request.params)
        except protocol.ProtocolError as exc:
            return protocol.encode(
                protocol.error_response(request.id, exc.code, str(exc))
            )
        probed = self.coalescer.probe(key)
        if isinstance(probed, str):
            return protocol.splice_result(request.id, probed)
        if probed is None:
            role, entry = self.coalescer.begin(key)
            if role == "leader":
                try:
                    fragment = self.lead_check(entry, request.params)
                except Exception as exc:  # noqa: BLE001 - must not kill the daemon
                    return protocol.encode(self.error_for(request.id, exc))
                return protocol.splice_result(request.id, fragment)
            probed = entry
        try:
            fragment = probed.future.result(timeout=self.FOLLOWER_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            return protocol.encode(self.error_for(request.id, exc))
        return protocol.splice_result(request.id, fragment)

    def lead_check(self, entry: InflightEntry, params: dict) -> str:
        """Compute as coalescing leader and publish to every follower.

        A check that re-ran edited units bumps the engine revision, so
        this response is never replayed again.  The leader then also
        files the *settled* response — what an unchanged re-check
        returns at the new revision — so the first re-check after an
        edit is a memo hit.  Edit then re-check is the editor loop's
        repeated step; a session's first check happens once, and the
        check after it computes as it always did.

        Raises on failure (after propagating the same failure to the
        followers) — the caller renders it with :meth:`error_for`."""
        try:
            with span("engine", cat="phase"):
                report, link_report = self._run_check(params)
            with span("encode", cat="phase"):
                fragment = report.encode(link_report)
        except BaseException as exc:
            self.coalescer.fail(entry, exc)
            raise
        self.coalescer.resolve(entry, fragment)
        settled = self.engine.settled(report) if report.rechecked else None
        if settled is not None:
            with span("encode-settled", cat="phase"):
                encoded = settled.encode(link_report)
            digest, _revision = entry.key
            self.coalescer.remember((digest, report.revision), encoded)
        return fragment

    def error_for(self, request_id, exc: BaseException) -> dict:
        """Map an exception to the response object for one request id."""
        if isinstance(exc, Overloaded):
            return protocol.error_response(
                request_id, protocol.OVERLOADED, str(exc), data=exc.data
            )
        if isinstance(exc, protocol.ProtocolError):
            return protocol.error_response(request_id, exc.code, str(exc))
        return protocol.error_response(
            request_id,
            protocol.INTERNAL_ERROR,
            f"{type(exc).__name__}: {exc}",
        )

    # -- methods --------------------------------------------------------------

    def _ping(self, params: dict) -> dict:
        return {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "dialect": self.engine.dialect,
            "units": len(self.engine.unit_names),
        }

    @staticmethod
    def _validate_check_params(params: dict) -> None:
        units = params.get("units")
        if units is not None and (
            not isinstance(units, list)
            or not all(isinstance(u, str) for u in units)
        ):
            raise protocol.ProtocolError(
                protocol.INVALID_PARAMS, "units must be a list of paths"
            )
        link = params.get("link")
        if link is not None and not isinstance(link, bool):
            raise protocol.ProtocolError(
                protocol.INVALID_PARAMS, "link must be a boolean"
            )

    def _run_check(self, params: dict):
        """The engine work behind ``check``: its report, plus the link
        report when ``link`` is set (``None`` otherwise)."""
        self._validate_check_params(params)
        if params.get("link"):
            # the link pass spans the whole corpus, so a linked check
            # ignores any units restriction and brings everything current
            return self.engine.link()
        return self.engine.check(params.get("units")), None

    def _check(self, params: dict) -> dict:
        report, link_report = self._run_check(params)
        return report.to_dict(link_report)

    def _link(self, params: dict) -> dict:
        return self._check({**params, "link": True})

    def _invalidate(self, params: dict) -> dict:
        paths = params.get("paths")
        if not isinstance(paths, list) or not all(
            isinstance(p, str) for p in paths
        ):
            raise protocol.ProtocolError(
                protocol.INVALID_PARAMS, "paths must be a list of strings"
            )
        affected = self.engine.invalidate(paths)
        return {"invalidated": sorted(affected)}

    def _status(self, params: dict) -> dict:
        status = self.engine.status()
        status["server"] = self.load.snapshot()
        status["server"]["uptime_seconds"] = round(
            time.monotonic() - self.started_monotonic, 3
        )
        status["coalescing"] = self.coalescer.stats()
        status["seeds"] = seeds.seed_stats()
        return status

    def _metrics(self, params: dict) -> dict:
        """Prometheus text exposition over everything the service can
        observe without provoking work: the engine's cache tiers, the
        load gauge, the coalescer, and the process-wide registry.

        Pull-style by design — the 10k req/s coalescing fast path pushes
        nothing; these numbers come from counters the hot paths already
        maintain."""
        exposition = Exposition(REGISTRY)
        cache = self.engine.cache_status()
        for slot in ("memory", "disk"):
            tier = (
                cache.get("cold_tier", "disk") if slot == "disk" else slot
            )
            exposition.add_stats(
                "mlffi_cache", cache[slot], kind="counter", tier=tier
            )
        coalesce = self.coalescer.stats()
        ratio = coalesce.pop("dedup_ratio", 0.0)
        exposition.add_stats("mlffi_coalesce", coalesce, kind="counter")
        exposition.add("mlffi_coalesce_dedup_ratio", ratio, kind="gauge")
        server = self.load.snapshot()
        for name in ("queue_depth", "in_flight", "workers", "max_queue"):
            exposition.add(
                f"mlffi_server_{name}", server[name], kind="gauge"
            )
        for name in ("shed", "served", "peak_in_flight"):
            exposition.add(
                f"mlffi_server_{name}_total", server[name], kind="counter"
            )
        exposition.add(
            "mlffi_server_uptime_seconds",
            round(time.monotonic() - self.started_monotonic, 3),
            kind="gauge",
        )
        exposition.add(
            "mlffi_engine_revision", self.engine.revision, kind="counter"
        )
        return {
            "content_type": PROM_CONTENT_TYPE,
            "text": exposition.render(),
        }

    def _rules(self, params: dict) -> dict:
        """The rule registry, optionally filtered to one pack.

        Metadata only: serving it must not provoke engine work, so IDE
        clients can fetch severities before submitting a first check."""
        dialect = params.get("dialect")
        if dialect is not None:
            if not isinstance(dialect, str):
                raise protocol.ProtocolError(
                    protocol.INVALID_PARAMS, "dialect must be a string"
                )
            if dialect not in RULE_REGISTRY.dialects():
                raise protocol.ProtocolError(
                    protocol.INVALID_PARAMS,
                    f"unknown rule pack `{dialect}` "
                    f"(known: {', '.join(RULE_REGISTRY.dialects())})",
                )
        rules = rules_pack(dialect)
        return {"rules": [rule.to_dict() for rule in rules]}

    def _shutdown(self, params: dict) -> dict:
        self.shutdown_requested.set()
        return {"ok": True}
