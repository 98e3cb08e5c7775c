"""Transports: the stdio loop, TCP port rebinding, and the real CLI daemon."""

import io
import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.engine import IncrementalEngine
from repro.server import AnalysisService, serve_async_tcp, serve_stdio

ML = 'type t = A of int | B\nexternal get : t -> int = "ml_get"\n'

GOOD_C = """\
value ml_get(value x)
{
    if (Is_long(x)) return Val_int(0);
    return Field(x, 0);
}
"""


@pytest.fixture()
def tree(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "lib.ml").write_text(ML)
    (root / "good.c").write_text(GOOD_C)
    return root


@pytest.fixture()
def service(tree):
    return AnalysisService(IncrementalEngine(tree))


def frames(*requests):
    return "".join(json.dumps(r) + "\n" for r in requests)


class TestStdio:
    def test_loop_serves_until_shutdown(self, service):
        stdin = io.StringIO(
            frames(
                {"id": 1, "method": "ping"},
                {"id": 2, "method": "check"},
                {"id": 3, "method": "shutdown"},
                {"id": 4, "method": "ping"},  # after shutdown: never served
            )
        )
        stdout = io.StringIO()
        assert serve_stdio(service, stdin, stdout) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert responses[1]["result"]["tally"]["errors"] == 0

    def test_loop_ends_at_eof_without_shutdown(self, service):
        stdin = io.StringIO(frames({"id": 1, "method": "ping"}))
        stdout = io.StringIO()
        assert serve_stdio(service, stdin, stdout) == 0
        assert not service.shutdown_requested.is_set()

    def test_malformed_lines_answered_not_fatal(self, service):
        stdin = io.StringIO("{nope\n" + frames({"id": 2, "method": "ping"}))
        stdout = io.StringIO()
        serve_stdio(service, stdin, stdout)
        first, second = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert "error" in first
        assert second["result"]["pong"] is True


class TestRebind:
    @staticmethod
    def _start(service, port):
        """serve_async_tcp on ``port`` in a thread; returns (thread, address)."""
        ready = threading.Event()
        bound = []
        thread = threading.Thread(
            target=serve_async_tcp,
            args=(service,),
            kwargs={"port": port, "ready": ready, "bound": bound},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30), "daemon did not come up"
        return thread, bound[0]

    @staticmethod
    def _call(address, *requests):
        with socket.create_connection(address, timeout=10) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            responses = []
            for request in requests:
                handle.write(json.dumps(request) + "\n")
                handle.flush()
                responses.append(json.loads(handle.readline()))
            return responses

    def test_restart_can_rebind_the_same_port_immediately(self, tree):
        """The rebind regression test referenced by the pinned
        ``reuse_address=True`` in :mod:`repro.server.async_daemon`:
        a restarted daemon must reclaim its port while the old
        connection lingers in TIME_WAIT, not crash with EADDRINUSE."""
        service = AnalysisService(IncrementalEngine(tree))
        thread, (host, port) = self._start(service, 0)
        # the daemon closes its end after acking shutdown, so the served
        # connection lingers in TIME_WAIT on the daemon's port
        ping, bye = self._call(
            (host, port),
            {"id": 1, "method": "ping"},
            {"id": 2, "method": "shutdown"},
        )
        assert ping["result"]["pong"] is True
        assert bye["result"] == {"ok": True}
        thread.join(timeout=10)
        assert not thread.is_alive()

        # without SO_REUSEADDR the rebind raises OSError(EADDRINUSE)
        reborn = AnalysisService(IncrementalEngine(tree))
        thread, address = self._start(reborn, port)
        assert address[1] == port
        (bye,) = self._call(address, {"id": 3, "method": "shutdown"})
        assert bye["result"] == {"ok": True}
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestCLIDaemon:
    """End-to-end: `mlffi-check serve` as a real child process."""

    @staticmethod
    def _serve(args, payload, cwd):
        repo_root = Path(__file__).resolve().parent.parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", *args],
            input=payload,
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
            timeout=120,
        )

    def test_stdio_daemon_incremental_session(self, tree, tmp_path):
        proc = self._serve(
            [str(tree), "--no-cache"],
            frames(
                {"id": 1, "method": "check"},
                {"id": 2, "method": "check"},
                {"id": 3, "method": "shutdown"},
            ),
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(responses[0]["result"]["incremental"]["ran"]) == 1
        assert responses[1]["result"]["incremental"]["ran"] == []
        assert responses[1]["result"]["incremental"]["reused"] == 1

    def test_missing_root_exits_125(self, tmp_path):
        proc = self._serve([str(tmp_path / "absent")], "", cwd=tmp_path)
        assert proc.returncode == 125
        assert "no such directory" in proc.stderr
