"""Shared plumbing: checkout paths, the `repro serve` subprocess, HTTP.

Everything the benchmark writes lives under ``.bench_work/`` in the
checkout (the gazetteer artifacts the package compiles into its temp
directory included), and is removed when the run ends.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_BANNER = re.compile(r"on http://[^:]+:(\d+)")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run (missing program, server that will not boot)."""


def require_program() -> None:
    """Fail unless the package sources are present in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"package sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class WorkDir:
    """A per-run scratch directory inside the checkout.

    Also becomes this process's (and its children's) temp directory, so
    nothing the program writes leaves the checkout.
    """

    def __init__(self) -> None:
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base))
        self.tmp = self.path / "tmp"
        self.tmp.mkdir()
        os.environ["TMPDIR"] = str(self.tmp)
        tempfile.tempdir = str(self.tmp)

    def file(self, name: str) -> Path:
        """A path for ``name`` inside the run directory."""
        return self.path / name

    def close(self) -> None:
        """Remove the run directory."""
        shutil.rmtree(self.path, ignore_errors=True)


def child_env() -> dict[str, str]:
    """Environment for program subprocesses: sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def reset_peak_rss() -> None:
    """Reset this process's peak resident set size to its current size,
    so :func:`benchmark_rss_mb` reports only what comes after."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def benchmark_rss_mb() -> float:
    """Peak resident set size of this process since the last
    :func:`reset_peak_rss`, in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError("no VmHWM in /proc/self/status")


class ServerProcess:
    """One `repro serve` subprocess on an ephemeral port.

    ``trace_out`` launches it through :mod:`perfbench.serve_traced`
    instead, which installs the layer wrappers in the server and writes
    their totals to ``trace_out`` on shutdown.
    """

    def __init__(self, snapshot: Path, gazetteer: str, work: WorkDir,
                 trace_out: Path | None = None):
        serve_args = ["serve", "--snapshot", str(snapshot), "--port", "0",
                      "--gazetteer", gazetteer]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(trace_out),
                    *serve_args]
        self._stderr = open(work.file(f"serve-{time.monotonic_ns()}.err"), "w+b")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            match = _BANNER.search(line)
            if match:
                return int(match.group(1))
        self.stop()
        self._stderr.seek(0)
        detail = self._stderr.read().decode("utf-8", "replace").strip()
        raise BenchmarkError(f"server exited before its banner: {detail[-500:]}")

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()


def connect(port: int) -> http.client.HTTPConnection:
    """A keep-alive connection to the local server."""
    return http.client.HTTPConnection("127.0.0.1", port, timeout=30)


def request(conn: http.client.HTTPConnection, method: str, target: str,
            headers: dict[str, str] | None = None) -> tuple[int, bytes]:
    """Send one request on ``conn``; returns ``(status, body)``."""
    conn.request(method, target, headers=headers or {})
    response = conn.getresponse()
    return response.status, response.read()


def first_byte(port: int, target: str) -> tuple[float, int, dict]:
    """GET ``target`` on a fresh socket.

    Returns the ``perf_counter`` instant the first response byte
    arrived, the status, and the parsed JSON body.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
                     "Connection: close\r\n\r\n".encode("ascii"))
        data = sock.recv(1)
        arrived = time.perf_counter()
        if not data:
            raise BenchmarkError(f"empty response to {target}")
        chunks = [data]
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return arrived, status, json.loads(body)
