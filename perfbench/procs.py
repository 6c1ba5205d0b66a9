"""Subprocesses under test: set-up probes, cold CLI runs, the daemon."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

# What a fresh interpreter pays before it can compute: importing the
# CLI module and loading the graph file.
SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
from repro.io.registry import load_graph
g = load_graph(sys.argv[1], directed=sys.argv[2] == "1")
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                  "n": g.n, "arcs": g.num_arcs}))
"""

CHILD_TIMEOUT_S = 120.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildRun:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


def run_child(cmd: List[str], root: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run to completion; wall time and the child's own peak RSS.

    ``os.wait4`` reaps the child so its rusage is its own, not the sum
    over every child this process ever waited for.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out: List[str] = []
        reader = threading.Thread(target=lambda: out.append(proc.stderr.read()))
        reader.start()
        stdout = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, stdout, out[0], wall, usage.ru_maxrss / 1024.0)


def setup_probe(root: Path, graph_file: str, directed: bool) -> ChildRun:
    return run_child(
        [sys.executable, "-c", SETUP_PROBE, graph_file, "1" if directed else "0"], root
    )


def probe_result(run: ChildRun) -> Optional[dict]:
    if run.returncode != 0:
        return None
    try:
        return json.loads(run.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def cold_compute(root: Path, graph_file: str, flags: List[str]) -> ChildRun:
    return run_child(
        [sys.executable, "-m", "repro.cli", "compute", graph_file, "--top", "10", *flags],
        root,
    )


class Daemon:
    """One ``repro-bc serve`` process on a unix socket.

    Paths are relative to the checkout root (the daemon's cwd), which
    keeps the socket path under the AF_UNIX length limit.
    """

    def __init__(self, root: Path, graph_file: str, flags: List[str], sock: str,
                 cache_dir: str, log_path: Path) -> None:
        self.root = root
        self.sock = sock
        self.log_path = log_path
        self.cmd = [
            sys.executable, "-m", "repro.cli", "serve", graph_file,
            "--unix-socket", sock, "--cache-dir", cache_dir, *flags,
        ]
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def start(self) -> float:
        self._log = open(self.log_path, "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, cwd=self.root, env=child_env(self.root),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        return t0

    def wait_socket(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while not os.path.exists(self.root / self.sock):
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.log_text()[-2000:]}")
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not bind its socket")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) so far."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def log_text(self) -> str:
        try:
            return self.log_path.read_text()
        except OSError:
            return ""

    def stop(self, timeout: float = 30.0) -> bool:
        """SIGTERM and wait; True iff it drained cleanly with exit 0."""
        if self.proc is None:
            return False
        ok = False
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            rc = self.proc.wait(timeout=timeout)
            ok = rc == 0 and "drained cleanly" in self.log_text()
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()
        return ok
