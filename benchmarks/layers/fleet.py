"""Server subprocesses of the HTTP workloads: start, wait healthy, stop, read RSS."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.client import ReproClient
from repro.core.errors import ReproError

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
HOST = "127.0.0.1"


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Fleet:
    """The ``repro-serve`` / ``repro-coordinator`` processes of one set-up.

    With ``traced`` the processes start through ``traced_entry.py``, which
    installs the span wrappers and writes ``<name>.trace.json`` into
    ``workdir`` when the process exits; :meth:`close` returns those files.
    """

    def __init__(self, workdir: Path, traced: bool):
        self._workdir = workdir
        self._traced = traced
        self._processes: list[tuple[str, subprocess.Popen, int]] = []
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self._env["PYTHONPATH"]] if self._env.get("PYTHONPATH") else [])
        )

    def _spawn(self, name: str, module: str, arguments: list[str]) -> int:
        port = _free_port()
        arguments = [*arguments, "--host", HOST, "--port", str(port), "--log-level", "warning"]
        if self._traced:
            trace_out = str(self._trace_path(name))
            command = [sys.executable, str(HERE / "traced_entry.py"), module, name, trace_out, *arguments]
        else:
            command = [sys.executable, "-m", module, *arguments]
        with open(self._workdir / f"{name}.log", "wb") as log:
            process = subprocess.Popen(command, env=self._env, stdout=log, stderr=subprocess.STDOUT)
        self._processes.append((name, process, port))
        return port

    def _trace_path(self, name: str) -> Path:
        return self._workdir / f"{name}.trace.json"

    def start_node(self, name: str, cache_size: int, workers: int) -> int:
        """Start one ``repro-serve`` over a fresh store; returns its port (not yet healthy)."""
        root = self._workdir / f"store-{name}"
        return self._spawn(
            name,
            "repro.server",
            ["--root", str(root), "--cache-size", str(cache_size), "--workers", str(workers)],
        )

    def start_coordinator(self, node_ports: list[int]) -> int:
        """Start a ``repro-coordinator`` (replication 1, no hedging) over ``node_ports``."""
        arguments = ["--replication", "1"]
        for index, port in enumerate(node_ports):
            arguments += ["--node", f"n{index}={HOST}:{port}"]
        return self._spawn("coordinator", "repro.coordinator", arguments)

    def wait_healthy(self, deadline: float = 60.0) -> None:
        """Block until every process answers ``/healthz``."""
        started = time.monotonic()
        for name, process, port in self._processes:
            with ReproClient(HOST, port, retries=0, timeout=5.0) as client:
                while True:
                    if process.poll() is not None:
                        raise RuntimeError(f"{name} exited with code {process.returncode} during start-up")
                    try:
                        if client.healthz()["status"] in ("ok", "degraded"):
                            break
                    except (ReproError, OSError):  # not listening yet
                        pass
                    if time.monotonic() - started > deadline:
                        raise RuntimeError(f"{name} on port {port} never became healthy")
                    time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """Summed high-water RSS (``VmHWM``) of the live processes."""
        total_kb = 0
        for _name, process, _port in self._processes:
            with open(f"/proc/{process.pid}/status", "r", encoding="ascii", errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        return total_kb / 1024.0

    def close(self) -> list[Path]:
        """SIGTERM every process, wait for all of them; returns the trace files written."""
        for _name, process, _port in self._processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for _name, process, _port in self._processes:
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        traces = [self._trace_path(name) for name, _process, _port in self._processes]
        self._processes = []
        return [path for path in traces if path.exists()]
