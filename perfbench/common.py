"""State and steps shared by the untraced and the traced run."""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from oracle import PRINTED_TOL, Oracle, parse_cli_top, topk_ok, vector_ok
from procs import ChildRun, cold_compute, probe_result, setup_probe
from workloads import DeltaSchedule, Workload, graph_digest, make_graph, write_edge_list


def median(xs: List[float]) -> float:
    if not xs:
        raise ValueError("no samples")
    return float(statistics.median(xs))


# The reference: pure-Python loops and numpy array passes in turns,
# about 0.1 s in all on a current x86 core.  None of it is program code.
REF_TURNS = 4
REF_ITERS = 150_000
REF_ARRAY = np.random.default_rng(0).integers(0, 1 << 16, size=50_000)


def reference_s() -> float:
    """Seconds of one fixed reference computation: the host's speed now.

    On a shared host the speed of a core swings by a third, within
    seconds and over minutes, with no steal time to show for it (CPU
    time swings as much as wall time).  The reference slows down with
    the program, so a sample divided by the reference times taken just
    before and just after it holds steady where its wall time does not;
    a change to the program still moves the quotient.  The reference
    mixes interpreter work and numpy array passes, the two kinds of
    work the program does.
    """
    t0 = time.perf_counter()
    for _ in range(REF_TURNS):
        acc = 0
        for i in range(REF_ITERS):
            acc += i * i % 7
        for _ in range(10):
            np.sort(REF_ARRAY)
            np.bincount(REF_ARRAY)
            np.cumsum(REF_ARRAY)
    return time.perf_counter() - t0


@dataclass
class Context:
    root: Path
    workdir: Path
    oracle: Oracle
    workload: Workload
    seed: int
    seconds: float
    smoke: bool
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    graph: object = None
    graph_file: str = ""
    ref: Optional[np.ndarray] = None
    _refs: Dict[str, np.ndarray] = field(default_factory=dict)

    # -- bookkeeping --------------------------------------------------
    def record(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; keep a note when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    # -- inputs -------------------------------------------------------
    def prepare(self) -> None:
        """Generate the seeded graph, write it, load it back, run Brandes."""
        from repro.io.registry import load_graph

        generated = make_graph(self.workload, self.seed, self.smoke)
        path = self.workdir / "graph.txt"
        write_edge_list(generated, path)
        self.graph_file = str(path.relative_to(self.root))
        self.graph = load_graph(path, directed=self.workload.directed())
        # an edge list cannot carry isolated vertices, so the program
        # sees the generated graph without them
        connected = int(np.count_nonzero(np.diff(generated.out_indptr)
                                         + np.diff(generated.in_indptr)))
        if (self.graph.n, self.graph.num_arcs) != (connected, generated.num_arcs):
            raise RuntimeError("loaded graph differs from the generated one")
        self.ref = self.oracle.brandes(self.graph)
        self._refs[graph_digest(self.graph)] = self.ref

    def reference(self, graph) -> np.ndarray:
        """Exact scores of a served graph version.

        The base graph's reference is Brandes; every other version is
        checked against a cache-free ``apgre_bc_detailed`` of the same
        graph on two threads, memoised by digest.
        """
        from repro.core.apgre import apgre_bc_detailed
        from repro.core.config import APGREConfig

        key = graph_digest(graph)
        if key not in self._refs:
            config = APGREConfig(batch_size="auto", backend="threads", workers=2)
            self._refs[key] = apgre_bc_detailed(graph, config).scores
        return self._refs[key]

    def schedule(self, partition=None) -> DeltaSchedule:
        from repro.decompose import graph_partition

        return DeltaSchedule(self.graph, partition or graph_partition(self.graph), self.seed,
                             self.workload.cycle)

    def check_first(self, answer) -> None:
        self.record(topk_ok(answer["top"], self.ref, 10),
                    "first /bc answer disagrees with Brandes")

    def account_session(self, log, versions) -> None:
        """Count every session operation and check every kept answer."""
        from serving import check_session

        self.attempted += log.attempted
        self.failures += log.errors
        self.failures += check_session(log, versions, self.reference)
        # the writer stops on whole cycles, so the final version is the
        # base graph again; check it against Brandes too
        final = versions.graph(len(versions.log) + 1)
        self.record(vector_ok(self.reference(final), self.oracle.brandes(final)),
                    "final served version disagrees with Brandes")

    # -- measured steps -----------------------------------------------
    def setup_probes(self, count: int) -> List[dict]:
        """Fresh interpreters importing the CLI and loading the file."""
        results = []
        for _ in range(count):
            run = setup_probe(self.root, self.graph_file, self.workload.directed())
            res = probe_result(run)
            ok = res is not None and res["n"] == self.graph.n and res["arcs"] == self.graph.num_arcs
            if self.record(ok, f"setup probe: rc={run.returncode} {run.stderr[-300:]}"):
                res["wall_s"] = run.wall_s
                results.append(res)
        return results

    def timed_solve(self, solve: Callable) -> Optional[float]:
        """Time one ``solve()``; the check against Brandes runs after."""
        t0 = time.perf_counter()
        scores = solve()
        elapsed = time.perf_counter() - t0
        ok = self.record(vector_ok(scores, self.ref), "in-process solve disagrees with Brandes")
        return elapsed if ok else None

    def cold_run(self) -> Optional[ChildRun]:
        run = cold_compute(self.root, self.graph_file, self.workload.cli_flags())
        rows = parse_cli_top(run.stdout)
        ok = run.returncode == 0 and topk_ok(rows, self.ref, 10, slack=PRINTED_TOL)
        return run if self.record(ok, f"cold CLI: rc={run.returncode} {run.stderr[-300:]}") else None

    def rounds(self, budget_s: float, min_rounds: int, setup: Callable[[int], Optional[float]],
               solve: Callable):
        """Rounds of a cold CLI run, a library solve and another cold run.

        Every other round starts with a set-up.  Rounds repeat until the
        budget is spent.  Alternating spreads every kind of sample over
        the same stretch of time, so a slow spell on the host hits each
        a little instead of one of them entirely.  ``setup(i)`` returns
        round ``i``'s set-up time, or None when it failed.  A first,
        untimed solve warms lazy imports and thread pools.  The reference
        computation runs between every two samples; each sample is
        returned as a ``(sample, reference_s)`` pair, with the mean of
        the reference times just before and just after it.
        """
        self.timed_solve(solve)
        setups: List[Tuple[float, float]] = []
        solves: List[Tuple[float, float]] = []
        colds: List[Tuple[ChildRun, float]] = []
        ref = reference_s()

        def step(run: Callable, out: List) -> None:
            nonlocal ref
            sample = run()
            after = reference_s()
            if sample is not None:
                out.append((sample, (ref + after) / 2))
            ref = after

        t_end = time.perf_counter() + budget_s
        for i in itertools.count():
            if i >= min_rounds and time.perf_counter() >= t_end:
                return setups, solves, colds
            if i % 2 == 0:
                step(lambda: setup(i), setups)
            step(self.cold_run, colds)
            step(lambda: self.timed_solve(solve), solves)
            step(self.cold_run, colds)
