"""The served session: one reader and one writer against a daemon.

Closed loop, two connections from one benchmark process: the reader
alternates ``GET /bc?top=10`` with ``GET /vertex/<seeded id>``, the
writer posts the seeded delta schedule, and each sends its next
request only after the previous answer arrived.  They run at once,
contending for the daemon, or take turns.  Answers are kept and
checked after the session, per graph version, outside the timed region.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from procs import Daemon
from workloads import READ_STREAM, DeltaSchedule, GraphVersions, rng_for

# writer cycles per session; each cycle ends on the base graph
CYCLES = 2


@dataclass
class SessionLog:
    read_ms: List[float] = field(default_factory=list)
    # (kind, version, answer): kind "bc" answers are top-k pairs,
    # kind "vertex" answers are (vertex, score)
    reads: List[Tuple[str, int, object]] = field(default_factory=list)
    delta_s: List[float] = field(default_factory=list)
    delta_server_s: List[float] = field(default_factory=list)
    read_window_s: float = 0.0
    write_window_s: float = 0.0
    errors: List[str] = field(default_factory=list)
    stats: Dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.read_ms) + len(self.delta_s) + len(self.errors)


def start_daemon(root: Path, workdir: Path, tag: str, graph_file: str, flags: List[str]):
    """Spawn a daemon and wait for its first ``/bc`` answer.

    Returns ``(daemon, client, setup_s, first_answer)``; set-up spans
    spawn to first answer, so it includes the cold partition and the
    full compute the first read triggers.
    """
    from repro.serve.client import ServeClient

    rel = workdir.relative_to(root)
    daemon = Daemon(root, graph_file, flags, sock=str(rel / f"{tag}.sock"),
                    cache_dir=str(rel / f"{tag}-store"), log_path=workdir / f"{tag}.log")
    t0 = daemon.start()
    try:
        daemon.wait_socket()
        # relative to the checkout root, the cwd: AF_UNIX paths are short
        client = ServeClient(unix_socket=daemon.sock, timeout=120.0)
        first = client.bc(top=10)
    except BaseException:
        daemon.stop()
        raise
    return daemon, client, time.perf_counter() - t0, first


def run_session(daemon: Daemon, client, schedule: DeltaSchedule, versions: GraphVersions,
                seed: int, n: int, overlap: bool, reads_per_turn: int) -> SessionLog:
    """Drive the reader and the writer; return what they saw.

    With ``overlap`` the reader runs while the writer does its cycles,
    two connections contending for the daemon.  Without it they take
    turns, ``reads_per_turn`` reads before each delta, so reads are
    spread over the session but never wait behind a delta.  The writer
    runs ``CYCLES`` whole cycles, so every run applies the same mix of
    delta kinds and ends on the base graph.
    """
    from repro.errors import ServeError

    log = SessionLog()
    done = threading.Event()
    ids = rng_for(seed, READ_STREAM).integers(0, n, size=1 << 16)
    reads = itertools.count()

    def read_once() -> None:
        i = next(reads)
        t = time.perf_counter()
        try:
            if i % 2 == 0:
                resp = client.bc(top=10)
                answer = ("bc", resp["version"], resp["top"])
            else:
                v = int(ids[i % ids.size])
                resp = client.vertex(v)
                answer = ("vertex", resp["version"], (v, resp["score"]))
        except ServeError as exc:
            log.errors.append(f"read: {exc}")
        else:
            log.read_ms.append((time.perf_counter() - t) * 1e3)
            log.reads.append(answer)
        log.read_window_s += time.perf_counter() - t

    def delta_once(d) -> bool:
        t = time.perf_counter()
        try:
            resp = client.delta(add=list(d.add), remove=list(d.remove))
        except ServeError as exc:
            log.errors.append(f"delta {d.kind}: {exc}")
            return False
        log.delta_s.append(time.perf_counter() - t)
        log.delta_server_s.append(float(resp["elapsed_seconds"]))
        versions.log.append(d)
        if resp.get("version") != len(versions.log) + 1:
            log.errors.append(f"delta committed as version {resp.get('version')}, "
                              f"expected {len(versions.log) + 1}")
            return False
        return True

    def writer() -> None:
        t0 = time.perf_counter()
        try:
            for cycle in itertools.islice(schedule.cycles(), CYCLES):
                for d in cycle:
                    for _ in range(0 if overlap else reads_per_turn):
                        read_once()
                    if not delta_once(d):
                        return
        finally:
            log.write_window_s = time.perf_counter() - t0
            if not overlap:
                log.write_window_s -= log.read_window_s
            done.set()

    def reader() -> None:
        while not done.is_set():
            read_once()

    if overlap:
        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    else:
        writer()
    try:
        log.stats = client.stats()
        log.peak_rss_mb = daemon.peak_rss_mb()
    except (ServeError, OSError, RuntimeError) as exc:
        log.errors.append(f"stats: {exc}")
    return log


def check_session(log: SessionLog, versions: GraphVersions, reference) -> List[str]:
    """Check every kept answer against the reference of its version."""
    from oracle import tolerance, topk_ok

    problems: List[str] = []
    refs: Dict[int, np.ndarray] = {}
    for kind, version, answer in log.reads:
        if not 1 <= version <= len(versions.log) + 1:
            problems.append(f"{kind} answer from unknown version {version}")
            continue
        if version not in refs:
            refs[version] = reference(versions.graph(version))
        ref = refs[version]
        if kind == "bc":
            ok = topk_ok(answer, ref, 10)
        else:
            v, score = answer
            ok = abs(float(score) - ref[v]) <= tolerance(ref)
        if not ok:
            problems.append(f"{kind} answer at version {version} disagrees with the reference")
    return problems
