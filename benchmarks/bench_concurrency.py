"""High-concurrency daemon benchmark: fleet traffic against one server.

Drives the asyncio daemon (:mod:`repro.server.async_daemon`) the way a
build fleet does — many concurrent TCP clients asking for the same
``check`` — and gates the behaviours the service tier promises:

1. **warm throughput** — with the corpus checked once, hundreds of
   concurrent clients re-requesting ``check`` are served from the
   coalescer's revision memo (an id splice, no engine work); the
   aggregate rate must exceed **10k checks/sec**;
2. **bounded latency** — sequential warm round-trips must keep p99
   under 50 ms (the event loop never blocks on analysis);
3. **coalescing** — the dedup ratio over the storm must be >= 0.9, and
   a concurrent burst of identical *cold* checks (engine revision just
   bumped) must share computation (at most two real runs: the dirty
   check plus one steady-state straggler);
4. **backpressure** — a saturated daemon (1 worker, tiny queue, burst
   of distinct cold checks) sheds with the ``OVERLOADED`` (-32005)
   error carrying ``data.queue_depth``, instead of queueing unboundedly;
5. **stability** — coalesced responses are byte-identical to computed
   ones, and daemon diagnostics byte-identical to one-shot analysis.

Run::

    python benchmarks/bench_concurrency.py
    python benchmarks/bench_concurrency.py --quick --json report.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.api import Project, Session
from repro.server import encode, serve_async_tcp
from repro.telemetry import span

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

THROUGHPUT_GATE_CHECKS_PER_SEC = 10_000.0
P99_GATE_MS = 50.0
DEDUP_GATE = 0.9


def build_tree(workdir: Path, pad: int) -> Path:
    """Copy the glue examples corpus, padded with renamed unit copies."""
    root = workdir / "glue"
    shutil.copytree(EXAMPLES / "glue", root)
    for unit in sorted(root.glob("*.c")):
        for copy in range(pad):
            target = root / f"{unit.stem}_copy{copy:02}.c"
            target.write_text(unit.read_text())
    return root


class DaemonHandle:
    """One in-process async daemon on an ephemeral port."""

    def __init__(self, root: Path, *, workers: int, max_queue: int):
        self.session = Session(root, dialect="ocaml")
        self.service = self.session.service()
        ready = threading.Event()
        bound: list = []
        self.thread = threading.Thread(
            target=serve_async_tcp,
            args=(self.service,),
            kwargs={
                "port": 0,
                "workers": workers,
                "max_queue": max_queue,
                "ready": ready,
                "bound": bound,
            },
            daemon=True,
        )
        self.thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("daemon did not come up")
        self.address = bound[0]

    def connect(self) -> "Client":
        return Client(self.address)

    def stop(self) -> None:
        with self.connect() as client:
            client.call({"id": "stop", "method": "shutdown"})
        self.thread.join(timeout=10)


class Client:
    """One newline-delimited JSON-RPC connection."""

    def __init__(self, address: tuple):
        self.sock = socket.create_connection(address, timeout=60)
        self.rfile = self.sock.makefile("r", encoding="utf-8")
        self.wfile = self.sock.makefile("w", encoding="utf-8")

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for stream in (self.rfile, self.wfile):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.sock.close()
        except OSError:
            pass

    def send(self, payload: dict) -> None:
        self.wfile.write(encode(payload))
        self.wfile.flush()

    def recv_line(self) -> str:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("daemon hung up")
        return line

    def call(self, payload: dict) -> dict:
        self.send(payload)
        return json.loads(self.recv_line())

    def pipeline(self, payloads: list) -> list:
        """Write every frame, then read every response (in order)."""
        for payload in payloads:
            self.wfile.write(encode(payload))
        self.wfile.flush()
        return [self.recv_line() for _ in payloads]


def coalescing_stats(daemon: DaemonHandle) -> dict:
    with daemon.connect() as client:
        response = client.call({"id": "stats", "method": "status"})
    return response["result"]["coalescing"]


def run_throughput_phase(
    daemon: DaemonHandle, clients: int, requests_per_client: int
) -> dict:
    """Concurrent pipelined warm checks; returns rate and dedup delta."""
    before = coalescing_stats(daemon)
    barrier = threading.Barrier(clients + 1)
    errors: list = []

    def storm(client_index: int) -> None:
        try:
            with daemon.connect() as client:
                frames = [
                    {"id": f"c{client_index}-{i}", "method": "check"}
                    for i in range(requests_per_client)
                ]
                barrier.wait(timeout=60)
                for line in client.pipeline(frames):
                    if '"result"' not in line:
                        errors.append(line)
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=storm, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - started
    after = coalescing_stats(daemon)

    total = clients * requests_per_client
    served = after["requests"] - before["requests"]
    computed = after["computed"] - before["computed"]
    return {
        "clients": clients,
        "requests": total,
        "elapsed_s": round(elapsed, 4),
        "warm_checks_per_sec": round(total / max(elapsed, 1e-9), 1),
        "dedup_ratio": round(
            1.0 - (computed / served) if served else 0.0, 4
        ),
        "errors": len(errors),
    }


def run_latency_phase(daemon: DaemonHandle, samples: int) -> dict:
    """Sequential warm round-trips; p50/p99 in milliseconds."""
    latencies = []
    with daemon.connect() as client:
        client.call({"id": "warm", "method": "check"})
        for index in range(samples):
            started = time.perf_counter()
            client.call({"id": index, "method": "check"})
            latencies.append((time.perf_counter() - started) * 1000.0)
    latencies.sort()
    return {
        "samples": samples,
        "p50_ms": round(latencies[len(latencies) // 2], 3),
        "p99_ms": round(latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))], 3),
    }


def run_inflight_phase(daemon: DaemonHandle, root: Path, burst: int) -> dict:
    """Identical *cold* checks in flight together must share computation.

    At most two computations are legitimate: the leader's dirty check
    (which re-analyzes the edited unit and therefore bumps the engine
    revision) plus one steady-state check for any straggler keyed at
    the new revision.  A burst of N computing more than twice means
    coalescing is broken."""
    edited = root / "counter_stubs.c"
    edited.write_text(edited.read_text() + "\n/* inflight edit */\n")
    with daemon.connect() as client:
        client.call(
            {
                "id": "inv",
                "method": "invalidate",
                "params": {"paths": [str(edited)]},
            }
        )
    before = coalescing_stats(daemon)
    barrier = threading.Barrier(burst)
    responses: list = []
    lock = threading.Lock()

    def fire(index: int) -> None:
        with daemon.connect() as client:
            barrier.wait(timeout=60)
            response = client.call({"id": index, "method": "check"})
            with lock:
                responses.append(response)

    threads = [
        threading.Thread(target=fire, args=(i,), daemon=True)
        for i in range(burst)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    after = coalescing_stats(daemon)
    return {
        "burst": burst,
        "responses": len(responses),
        "all_ok": all("result" in r for r in responses),
        "computed": after["computed"] - before["computed"],
    }


def run_shed_phase(root: Path, burst: int) -> dict:
    """Saturate a 1-worker daemon with distinct cold checks; count sheds.

    Distinct ``tag`` params force distinct coalescing keys, so every
    request wants its own computation slot; with ``workers=1`` and a
    two-deep queue, most of the burst must shed with ``OVERLOADED``.
    """
    daemon = DaemonHandle(root, workers=1, max_queue=2)
    try:
        with daemon.connect() as client:
            client.call({"id": "warm", "method": "check"})
            # dirty the whole tree so the next checks are slow leaders
            client.call(
                {
                    "id": "inv",
                    "method": "invalidate",
                    "params": {
                        "paths": [str(p) for p in sorted(root.glob("*.c"))]
                    },
                }
            )
        barrier = threading.Barrier(burst)
        responses: list = []
        lock = threading.Lock()

        def fire(index: int) -> None:
            with daemon.connect() as client:
                barrier.wait(timeout=60)
                response = client.call(
                    {
                        "id": index,
                        "method": "check",
                        "params": {"tag": index},
                    }
                )
                with lock:
                    responses.append(response)

        threads = [
            threading.Thread(target=fire, args=(i,), daemon=True)
            for i in range(burst)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        with daemon.connect() as client:
            server = client.call({"id": "s", "method": "status"})
            server = server["result"]["server"]
    finally:
        daemon.stop()
        daemon.session.close()

    sheds = [r for r in responses if "error" in r]
    codes_ok = all(r["error"]["code"] == -32005 for r in sheds)
    depth_ok = all(
        "queue_depth" in r["error"].get("data", {}) for r in sheds
    )
    return {
        "burst": burst,
        "shed": len(sheds),
        "shed_rate": round(len(sheds) / burst, 4),
        "server": server,
        "gates": {
            "some_requests_shed": len(sheds) >= 1,
            "shed_code_is_overloaded": codes_ok and len(sheds) >= 1,
            "shed_carries_queue_depth": depth_ok and len(sheds) >= 1,
        },
    }


def run_stability_phase(daemon: DaemonHandle, root: Path) -> dict:
    """Coalesced bytes == computed bytes; daemon == one-shot analysis."""
    # identical frames on two connections: the first may compute, the
    # second replays the memo — the wire bytes must match exactly
    with daemon.connect() as a, daemon.connect() as b:
        a.send({"id": "same", "method": "check"})
        first = a.recv_line()
        b.send({"id": "same", "method": "check"})
        second = b.recv_line()
    replay_identical = first == second

    by_name = {
        u["name"]: u for u in json.loads(first)["result"]["units"]
    }
    one_shot_identical = True
    for unit in sorted((EXAMPLES / "glue").glob("*.c")):
        local = root / unit.name
        project = Project(dialect="ocaml")
        for host in sorted(root.glob("*.ml")) + sorted(root.glob("*.mli")):
            project.add_ocaml(host.read_text(), name=str(host))
        project.add_c(local.read_text(), name=str(local))
        direct = [d.to_dict() for d in project.analyze().diagnostics]
        daemon_bytes = encode(
            {"diagnostics": by_name[str(local)]["diagnostics"]}
        )
        if daemon_bytes != encode({"diagnostics": direct}):
            one_shot_identical = False
    return {
        "memo_replay_byte_identical": replay_identical,
        "diagnostics_byte_identical": one_shot_identical,
    }


def measure_telemetry_residue(p50_ms: float, iterations: int = 200_000) -> dict:
    """The disabled telemetry hook's cost per request, vs warm latency.

    The async daemon opens one request span per served frame.  With no
    tracer installed that span is a flag check and a ContextVar read; a
    tight timing loop measures it deterministically (storm throughput is
    far too noisy to resolve a sub-microsecond residue).  The gate
    bounds it below 2% of the measured warm p50 round-trip.
    """
    started = time.perf_counter()
    for _ in range(iterations):
        with span("bench", cat="request"):
            pass
    per_call_s = (time.perf_counter() - started) / iterations
    fraction = per_call_s / max(p50_ms / 1000.0, 1e-9)
    return {
        "hook_ns_per_request": round(per_call_s * 1e9, 1),
        "fraction_of_warm_p50": round(fraction, 6),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients",
        type=int,
        default=100,
        help="concurrent connections in the throughput storm "
        "(default: 100)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=100,
        help="pipelined checks per client (default: 100)",
    )
    parser.add_argument(
        "--pad",
        type=int,
        default=4,
        help="renamed copies of each example unit (default: 4)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller storm for CI smoke runs (same gates)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the JSON payload to PATH",
    )
    args = parser.parse_args(argv)
    clients = 32 if args.quick else args.clients
    requests = 50 if args.quick else args.requests
    pad = 2 if args.quick else args.pad
    latency_samples = 300 if args.quick else 1000

    workdir = Path(tempfile.mkdtemp(prefix="mlffi-bench-conc-"))
    try:
        root = build_tree(workdir, pad)
        daemon = DaemonHandle(root, workers=4, max_queue=64)
        try:
            with daemon.connect() as client:
                client.call({"id": "warmup", "method": "check"})
            throughput = run_throughput_phase(daemon, clients, requests)
            latency = run_latency_phase(daemon, latency_samples)
            inflight = run_inflight_phase(daemon, root, burst=16)
            stability = run_stability_phase(daemon, root)
        finally:
            daemon.stop()
            daemon.session.close()
        # burst >> slot count so the shed *rate* is dominated by the
        # fixed number of slots, not by arrival-timing jitter — keeps
        # the shed ratio stable across runners
        shed = run_shed_phase(root, burst=48)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    telemetry = measure_telemetry_residue(latency["p50_ms"])

    gates = {
        "telemetry_off_under_2pct_of_p50": (
            telemetry["fraction_of_warm_p50"] < 0.02
        ),
        "throughput_over_10k_per_sec": (
            throughput["warm_checks_per_sec"]
            >= THROUGHPUT_GATE_CHECKS_PER_SEC
        ),
        "no_client_errors": throughput["errors"] == 0,
        "p99_bounded": latency["p99_ms"] <= P99_GATE_MS,
        "dedup_ratio_over_90pct": throughput["dedup_ratio"] >= DEDUP_GATE,
        "identical_inflight_share_computation": (
            1 <= inflight["computed"] <= 2 and inflight["all_ok"]
        ),
        **shed.pop("gates"),
        **stability,
    }
    payload = {
        "quick": args.quick,
        "pad_copies_per_unit": pad,
        "throughput": throughput,
        "warm_checks_per_sec": throughput["warm_checks_per_sec"],
        "dedup_ratio": throughput["dedup_ratio"],
        "latency": latency,
        "p99_ms": latency["p99_ms"],
        "inflight": inflight,
        "shed": shed,
        "shed_rate": shed["shed_rate"],
        "telemetry": telemetry,
        "gates": gates,
        "gates_passed": all(gates.values()),
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.json is not None:
        Path(args.json).write_text(text + "\n")
    return 0 if payload["gates_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
