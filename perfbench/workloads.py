"""Workload recipes and the seeded inputs each run is built from.

Every workload is one graph analogue from ``repro.generators.suite``
plus one execution config, the strongest existing one
(``batch_size="auto"``, with the threaded backend where it pays).  A
run drives that config down all three ways a user gets scores: an
in-process ``apgre_bc_detailed`` call on the resident graph, a cold
``repro-bc compute`` subprocess, and a served session against a
``repro-bc serve`` daemon.  The workloads differ in which layer the
time goes to, and in how the run's measuring time is split between
the three paths.

Everything the program sees is derived from ``--seed``: the vertex
ids of the graph (an edge-list file), the vertex ids the reader asks
for and the writer's delta schedule.  The graph's structure is the
analogue's own, built from the suite's fixed seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

# Random streams derived from one seed; the numbers only keep the
# streams apart.
READ_STREAM, DELTA_STREAM, RELABEL_STREAM = 1, 2, 3


@dataclass(frozen=True)
class Workload:
    """One graph, one config, one split of the measuring time."""

    name: str
    suite: str
    scale: float
    smoke_scale: float
    backend: Optional[str]
    workers: int
    # delta kinds of one writer cycle (see DeltaSchedule)
    cycle: Tuple[str, ...]
    # whether the served reader and writer run at once (else in turns)
    overlap: bool
    why: str

    def directed(self) -> bool:
        from repro.generators.suite import SUITE_SPECS

        return SUITE_SPECS[self.suite].directed

    def config(self, **overrides):
        """The workload's ``APGREConfig`` (cache-free unless overridden)."""
        from repro.core.config import APGREConfig

        kwargs: Dict = {"batch_size": "auto"}
        if self.backend is not None:
            kwargs.update(backend=self.backend, workers=self.workers)
        kwargs.update(overrides)
        return APGREConfig(**kwargs)

    def cli_flags(self) -> List[str]:
        """The same config spelled as ``repro-bc`` flags."""
        flags = ["--batch-size", "auto"]
        if self.backend is not None:
            flags += ["--backend", self.backend, "--workers", str(self.workers)]
        if self.directed():
            flags.append("--directed")
        return flags

    def recipe(self, smoke: bool) -> Dict:
        """Self-description printed with every run."""
        return {
            "workload": self.name,
            "generator": "repro.generators.suite.analogue_graph",
            "suite": self.suite,
            "scale": self.smoke_scale if smoke else self.scale,
            "seed_use": "the analogue's own structure; --seed permutes its vertex ids",
            "config": repr(self.config()),
            "cli_flags": self.cli_flags(),
            "load_shape": "closed loop, 1 reader + 1 writer, "
            + ("at once on 2 connections" if self.overlap else "taking turns"),
            "writer_cycle": [k for kind in self.cycle for k in (kind, kind + "-undo")],
            "why": self.why,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="road",
            suite="USA-roadBAY",
            scale=1.5,
            smoke_scale=0.4,
            backend="threads",
            workers=2,
            cycle=("local", "top"),
            overlap=False,
            why=(
                "grid core holds ~87% of the vertices, so the batched "
                "kernel and the threaded backend do ~95% of a solve; "
                "decomposition is a few % and should not move it"
            ),
        ),
        Workload(
            name="social",
            suite="Email-EuAll",
            scale=2,
            smoke_scale=0.5,
            backend=None,
            workers=1,
            cycle=("local",),
            overlap=False,
            why=(
                "directed, ~250 sub-graphs: graph_partition plus the "
                "blocked-BFS alpha/beta take ~80% of a solve and the "
                "parallel layer is unused; the mirror image of road"
            ),
        ),
        Workload(
            name="serve",
            suite="com-youtube",
            scale=1.5,
            smoke_scale=0.4,
            backend=None,
            workers=1,
            cycle=("local", "top", "cut"),
            overlap=True,
            why=(
                "~150 sub-graphs, top one ~57% of the vertices: reads "
                "exercise protocol, snapshots and the score LRU, writes "
                "exercise incremental replay and the store's disk layer"
            ),
        ),
    ]
}


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def make_graph(workload: Workload, seed: int, smoke: bool):
    """The workload's analogue with its vertex ids permuted by ``seed``.

    Every seed gets the same structure, so every seed asks for the same
    work: analogues grown from different seeds differed in solve time
    by up to a tenth, repeatably, which showed as spread between runs.
    """
    from repro.generators.suite import analogue_graph
    from repro.graph import from_edges

    scale = workload.smoke_scale if smoke else workload.scale
    graph = analogue_graph(workload.suite, scale=scale)
    perm = rng_for(seed, RELABEL_STREAM).permutation(graph.n)
    src, dst = graph.arcs()
    if not graph.directed:
        keep = src < dst
        src, dst = src[keep], dst[keep]
    return from_edges(np.column_stack([perm[src], perm[dst]]), directed=graph.directed,
                      n=graph.n)


def graph_digest(graph) -> str:
    """Content digest of a CSR graph (keys the oracle cache)."""
    h = hashlib.sha256()
    h.update(f"{graph.n}:{int(graph.directed)}".encode())
    h.update(np.ascontiguousarray(graph.out_indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(graph.out_indices, dtype=np.int64).tobytes())
    return h.hexdigest()[:32]


def write_edge_list(graph, path: Path) -> None:
    """Write the SNAP-style edge list the program reads.

    Undirected edges are written once.  Ids stay dense unless the
    analogue has isolated vertices, which the reader then drops.
    """
    src, dst = graph.arcs()
    if not graph.directed:
        keep = src < dst
        src, dst = src[keep], dst[keep]
    kind = "directed" if graph.directed else "undirected"
    with open(path, "w") as fh:
        fh.write(f"# perfbench input ({kind}), n={graph.n}\n")
        np.savetxt(fh, np.column_stack([src, dst]), fmt="%d")


@dataclass(frozen=True)
class Delta:
    """One single-edge delta; ``add`` xor ``remove`` holds the pair."""

    kind: str
    add: Tuple[Tuple[int, int], ...] = ()
    remove: Tuple[Tuple[int, int], ...] = ()

    def inverse(self) -> "Delta":
        return Delta(kind=self.kind + "-undo", add=self.remove, remove=self.add)


class DeltaSchedule:
    """Seeded single-edge deltas against the base graph, in cycles.

    In a cycle each mutating delta is followed by its inverse, so the
    cycle visits one fresh graph version per kind and returns to the
    base graph.  The fixed mix keeps a run's delta latencies comparable
    across seeds: a uniform toggle schedule hit connectivity-changing
    removals (every sub-graph recomputed, ~1 s) on anywhere from a
    fifth to half of its deltas depending on the seed, against ~0.1 s
    for local edits.  The kinds:

    * ``local``: add a missing edge between two vertices of a seeded
      non-top sub-graph (replay everything but one small component);
    * ``top``: add a missing edge inside the top sub-graph (recompute
      the dominant component, replay the rest);
    * ``cut``: remove the only edge of a seeded pendant vertex, which
      changes connectivity: every sub-graph whose α/β/γ summaries see
      the detached vertex is recomputed (all of them, or only the top
      one when the pendant hangs off it).

    Each ``*-undo`` delta restores the base graph, whose contributions
    the store already holds, so it replays every sub-graph.
    """

    def __init__(self, graph, partition, seed: int, kinds: Tuple[str, ...]) -> None:
        self.graph = graph
        self.kinds = kinds
        self.rng = rng_for(seed, DELTA_STREAM)
        subgraphs = partition.subgraphs
        self.top = subgraphs[0].vertices
        self.small = [sg.vertices for sg in subgraphs[1:] if sg.vertices.size >= 3]
        out_deg = np.diff(graph.out_indptr)
        if graph.directed:
            in_deg = np.diff(graph.in_indptr)
            pendants = np.flatnonzero((out_deg == 1) & (in_deg == 0))
        else:
            pendants = np.flatnonzero(out_deg == 1)
        self.pendants = pendants
        if not self.small or self.pendants.size == 0:
            raise ValueError("graph has no small sub-graph or no pendant vertex")

    def _missing_pair(self, pools: List[np.ndarray]) -> Tuple[int, int]:
        for _ in range(1000):
            verts = pools[int(self.rng.integers(len(pools)))]
            u, v = (int(x) for x in self.rng.choice(verts, size=2, replace=False))
            if not self.graph.has_edge(u, v):
                return u, v
        raise ValueError("no missing vertex pair found")

    def _mutation(self, kind: str) -> Delta:
        if kind == "local":
            return Delta(kind, add=(self._missing_pair(self.small),))
        if kind == "top":
            return Delta(kind, add=(self._missing_pair([self.top]),))
        p = int(self.pendants[int(self.rng.integers(self.pendants.size))])
        q = int(self.graph.out_neighbors(p)[0])
        return Delta(kind, remove=((p, q),))

    def cycles(self) -> Iterator[List[Delta]]:
        while True:
            cycle: List[Delta] = []
            for kind in self.kinds:
                d = self._mutation(kind)
                cycle += [d, d.inverse()]
            yield cycle


class GraphVersions:
    """Rebuild every served graph version from the client's delta log.

    Version 1 is the base graph; version ``k + 1`` applies the first
    ``k`` logged deltas.  The edge set is kept here and rebuilt through
    ``from_edges``, not through the daemon's own delta code.
    """

    def __init__(self, base) -> None:
        self.base = base
        src, dst = base.arcs()
        if not base.directed:
            keep = src < dst
            src, dst = src[keep], dst[keep]
        self._base_edges = set(zip(src.tolist(), dst.tolist()))
        self.log: List[Delta] = []

    def _key(self, u: int, v: int) -> Tuple[int, int]:
        return (u, v) if self.base.directed or u < v else (v, u)

    def graph(self, version: int):
        from repro.graph import from_edges

        if version == 1:
            return self.base
        edges = set(self._base_edges)
        for d in self.log[: version - 1]:
            for u, v in d.remove:
                edges.discard(self._key(u, v))
            for u, v in d.add:
                edges.add(self._key(u, v))
        arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
        return from_edges(arr, directed=self.base.directed, n=self.base.n)
