"""Asyncio TCP transport: the high-concurrency face of the daemon.

This transport holds every connection on one event loop and spends
threads only on actual analysis, so fleet traffic — hundreds of editors
and CI bots banging on one daemon — costs what the *work* costs, not
what the connection count costs:

* **fast path inline** — coalescer memo hits and ``shutdown`` are
  answered on the event loop itself: readline, digest, dict lookup, id
  splice, write.  No thread handoff, no engine lock (the coalescing key
  reads the engine revision under its own cheap lock).
* **slow path pooled** — ``check`` leaders, ``invalidate``, ``ping``
  and ``status`` run on a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor` (``workers``
  threads); they all take the engine lock, which an in-flight analysis
  holds end to end, so answering them on the loop would stall every
  connection behind one cold check.  Followers of an in-flight check
  ``await`` the leader's future via :func:`asyncio.wrap_future` without
  occupying a thread.
* **backpressure** — at most ``workers + max_queue`` computations may
  be in flight (:class:`~repro.server.service.LoadGauge`); beyond that
  the daemon *sheds*: the request is answered immediately with an
  :data:`~repro.server.protocol.OVERLOADED` error carrying the current
  ``queue_depth``, instead of growing an unbounded queue until every
  client times out.  Shedding happens *before* coalescer registration,
  so a shed request never strands followers.
* **fleet mode** — ``reuse_port=True`` sets ``SO_REUSEPORT`` so N
  daemon processes can bind one port and the kernel load-balances
  connections across them; point them at one ``--cache-dir`` and they
  share a warm cache too.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..defaults import DEFAULT_MAX_QUEUE, DEFAULT_WORKERS
from ..telemetry import JsonLogger, span
from . import protocol
from .service import AnalysisService, Overloaded


class _AsyncDaemon:
    def __init__(
        self,
        service: AnalysisService,
        *,
        workers: int,
        max_queue: int,
        log: Optional[JsonLogger] = None,
    ):
        self.service = service
        self.pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="mlffi-worker"
        )
        self.service.load.configure(workers, max_queue)
        self.stopping = asyncio.Event()
        self.log = log

    # -- request handling ------------------------------------------------------

    async def respond(self, request: protocol.Request) -> tuple[str, dict]:
        """Serve one request; returns (wire frame, log metadata)."""
        if request.method == "check":
            return await self.respond_check(request)
        if request.method in ("ping", "status", "invalidate", "metrics"):
            # these all take the engine lock, which a running check holds
            # for its entire analysis — answered on the loop they would
            # stall every connection behind one cold check: off the loop
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(
                self.pool, self.service.handle_request, request
            )
        else:
            # shutdown (and unknown-method errors) touch no engine state
            response = self.service.handle_request(request)
        meta = {}
        if "error" in response:
            meta = {
                "outcome": "error",
                "code": response["error"].get("code"),
            }
        return protocol.encode(response), meta

    async def respond_check(
        self, request: protocol.Request
    ) -> tuple[str, dict]:
        service = self.service
        try:
            key = service.check_key(request.params)
        except protocol.ProtocolError as exc:
            return protocol.encode(
                protocol.error_response(request.id, exc.code, str(exc))
            ), {"outcome": "error", "code": exc.code}
        probed = service.coalescer.probe(key)
        if isinstance(probed, str):  # memo hit: the 10k-checks/sec path
            return protocol.splice_result(request.id, probed), {
                "coalesce": "memo"
            }
        if probed is None:
            # a computation would be needed — this is the backpressure
            # point: claim a slot before registering as leader, so a
            # shed request leaves no entry behind for followers to find
            if not service.load.try_acquire():
                return protocol.encode(
                    service.error_for(request.id, Overloaded(service.load))
                ), {"outcome": "shed"}
            try:
                role, entry = service.coalescer.begin(key)
                if role == "leader":
                    loop = asyncio.get_running_loop()
                    try:
                        fragment = await loop.run_in_executor(
                            self.pool,
                            service.lead_check,
                            entry,
                            request.params,
                        )
                    except Exception as exc:  # noqa: BLE001 - report it
                        return protocol.encode(
                            service.error_for(request.id, exc)
                        ), {"outcome": "error", "coalesce": "leader"}
                    return protocol.splice_result(request.id, fragment), {
                        "coalesce": "leader"
                    }
                probed = entry  # lost the begin race: fall through
            finally:
                service.load.release()
        try:
            fragment = await asyncio.wait_for(
                asyncio.wrap_future(probed.future),
                timeout=service.FOLLOWER_TIMEOUT_S,
            )
        except Exception as exc:  # noqa: BLE001 - report, don't die
            return protocol.encode(service.error_for(request.id, exc)), {
                "outcome": "error",
                "coalesce": "follower",
            }
        return protocol.splice_result(request.id, fragment), {
            "coalesce": "follower"
        }

    def _log_request(
        self,
        request: Optional[protocol.Request],
        meta: dict,
        duration_s: float,
    ) -> None:
        """One JSON event per served frame (no-op without ``--log-json``)."""
        if self.log is None:
            return
        event = {
            "event": "request",
            "method": request.method if request else None,
            "id": request.id if request else None,
            "outcome": meta.get("outcome", "ok"),
            "duration_ms": round(duration_s * 1000, 3),
        }
        for key in ("coalesce", "code"):
            if key in meta:
                event[key] = meta[key]
        self.log.emit(event)

    # -- connection loop -------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self.stopping.is_set():
                raw = await reader.readline()
                if not raw:
                    return
                line = raw.decode("utf-8", "replace")
                if not line.strip():
                    continue
                started = time.perf_counter()
                request = None
                try:
                    request = protocol.decode_line(line)
                except protocol.ProtocolError as exc:
                    response = protocol.encode(
                        protocol.error_response(None, exc.code, str(exc))
                    )
                    meta = {"outcome": "error", "code": exc.code}
                else:
                    with span(request.method, cat="request"):
                        response, meta = await self.respond(request)
                self._log_request(
                    request, meta, time.perf_counter() - started
                )
                writer.write(response.encode("utf-8"))
                await writer.drain()
                if self.service.shutdown_requested.is_set():
                    # only after the ack is drained — a shutdown whose
                    # response the client never sees reads as a crash
                    self.stopping.set()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client hung up mid-frame: their loss, not ours
        finally:
            with contextlib.suppress(Exception):
                writer.close()


async def _serve(
    service: AnalysisService,
    host: str,
    port: int,
    *,
    workers: int,
    max_queue: int,
    reuse_port: bool,
    ready: Optional[threading.Event],
    bound: Optional[list],
    log: Optional[JsonLogger],
) -> int:
    daemon = _AsyncDaemon(
        service, workers=workers, max_queue=max_queue, log=log
    )
    # reuse_address is pinned: a restarted daemon must rebind its port
    # immediately, not wait out TIME_WAIT from its predecessor's
    # connections (see the rebind test in tests/server/test_daemon.py)
    try:
        server = await asyncio.start_server(
            daemon.handle_connection,
            host,
            port,
            reuse_address=True,
            reuse_port=reuse_port,
        )
    except (ValueError, OSError):
        if not reuse_port:
            raise
        # SO_REUSEPORT unsupported here: degrade to a plain bind so a
        # single-replica deployment still comes up
        print(
            "mlffi-check serve: SO_REUSEPORT unavailable, binding plain",
            file=sys.stderr,
            flush=True,
        )
        server = await asyncio.start_server(
            daemon.handle_connection,
            host,
            port,
            reuse_address=True,
            reuse_port=False,
        )
    try:
        address = server.sockets[0].getsockname()[:2]
        if bound is not None:
            bound.append(address)
        if ready is not None:
            ready.set()
        print(
            f"mlffi-check serve: listening on {address[0]}:{address[1]} "
            f"(async, workers={workers}, max-queue={max_queue})",
            file=sys.stderr,
            flush=True,
        )
        async with server:
            stopper = asyncio.ensure_future(daemon.stopping.wait())
            try:
                await stopper
            finally:
                stopper.cancel()
    finally:
        daemon.pool.shutdown(wait=False, cancel_futures=True)
    return 0


def serve_async_tcp(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 9178,
    *,
    workers: int = DEFAULT_WORKERS,
    max_queue: int = DEFAULT_MAX_QUEUE,
    reuse_port: bool = False,
    ready: Optional[threading.Event] = None,
    bound: Optional[list] = None,
    log: Optional[JsonLogger] = None,
) -> int:
    """Serve until a ``shutdown`` frame arrives; returns 0.

    ``bound`` (a list, appended with the ``(host, port)`` actually
    bound) and ``ready`` (set once accepting) let tests bind port 0 and
    discover where the daemon landed.  ``log``, when given, receives one
    JSON event per served frame (``--log-json``).
    """
    try:
        return asyncio.run(
            _serve(
                service,
                host,
                port,
                workers=workers,
                max_queue=max_queue,
                reuse_port=reuse_port,
                ready=ready,
                bound=bound,
                log=log,
            )
        )
    except KeyboardInterrupt:
        return 0
