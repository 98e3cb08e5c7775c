"""Child processes: a hermetic environment and wall/RSS measurement.

Every ``mlffi-check`` child runs from the checkout's ``src`` with an
environment built from scratch: ``HOME``, the XDG cache and
``MLFFI_SEED_DIR`` all point into the run's own temp root, so no run
reads ``~/.cache/mlffi`` or inherits another run's artifacts.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

#: the CLI entry point ``mlffi-check`` names, run from source
CLI = (sys.executable, "-m", "repro.cli")


def hermetic_env(checkout: Path, temp_root: Path, seed_dir: Path) -> dict[str, str]:
    home = temp_root / "home"
    home.mkdir(parents=True, exist_ok=True)
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(home),
        "XDG_CACHE_HOME": str(home / ".cache"),
        "TMPDIR": str(temp_root),
        "PYTHONPATH": str(checkout / "src"),
        # bytecode is compiled once per checkout before any timing, and
        # never rewritten by a measured child
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
        "MLFFI_SEED_DIR": str(seed_dir),
    }


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(
    argv: Sequence[str], env: dict[str, str], out_dir: Path, timeout: float = 170.0
) -> ChildRun:
    """Run one child to completion; wall time spans exec to exit.

    Output goes to files rather than pipes, so the parent can reap the
    child with ``wait4`` and read that child's own peak RSS.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = out_dir / "child.out", out_dir / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), env=env, stdout=out, stderr=err)
        try:
            status, rusage = _reap(proc, timeout)
        except BaseException:
            # interrupted while waiting: never leave the child behind
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - started
    return ChildRun(
        returncode=status,
        wall_s=wall,
        peak_rss_mb=rusage.ru_maxrss / 1024.0 if rusage is not None else 0.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def _reap(proc: subprocess.Popen, timeout: float):
    """``wait4`` the child, killing it after ``timeout`` seconds."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _pid, status, rusage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise TimeoutError(f"child killed after {timeout:.0f}s: {' '.join(map(str, proc.args))}")
    return proc.returncode, rusage


class Daemon:
    """One ``mlffi-check serve --tcp`` child and a line-JSON connection."""

    def __init__(self, argv: Sequence[str], env: dict[str, str], log_path: Path):
        import socket

        self.started = time.perf_counter()
        self._log = open(log_path, "w+")
        self.proc = subprocess.Popen(
            list(argv), env=env, stdout=subprocess.DEVNULL, stderr=self._log
        )
        self._next_id = 0
        port = self._wait_for_port(log_path)
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=170)
        self.peak_rss_mb = 0.0

    def _wait_for_port(self, log_path: Path, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = re.search(r"listening on [^:\s]+:(\d+)", log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.close()
        raise RuntimeError(f"daemon did not come up: {log_path.read_text()[-400:]}")

    def call(self, method: str, params: Optional[dict] = None) -> dict:
        """One request/reply; ``self.received`` is when the whole reply
        line had arrived, before the client parsed it."""
        import json

        self._next_id += 1
        frame = {"id": self._next_id, "method": method, "params": params or {}}
        self.sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))
        # one request in flight, one reply line back: the reply is complete
        # when a chunk ends with the newline, and is decoded only after that
        chunks = []
        while True:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise RuntimeError(f"daemon closed the connection during {method}")
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        self.received = time.perf_counter()
        return json.loads(b"".join(chunks))

    def rss_high_water_mb(self) -> Optional[float]:
        """The live daemon's peak RSS so far (``VmHWM``), where ``/proc``
        has it."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return None
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0 if match else None

    def close(self) -> None:
        """Ask for shutdown, then reap; kill if it does not exit."""
        try:
            if getattr(self, "sock", None) is not None:
                try:
                    self.call("shutdown")
                except (OSError, RuntimeError, ValueError):
                    pass
                self.sock.close()
                self.sock = None
        finally:
            if self.proc.returncode is None:
                try:
                    _status, rusage = _reap(self.proc, 20.0)
                except TimeoutError:
                    rusage = None
                if rusage is not None:
                    self.peak_rss_mb = rusage.ru_maxrss / 1024.0
            self._log.close()
