"""Vectorised breadth-first traversal kernels.

These kernels realise the paper's *fine-grained level-synchronous
parallelism* ("for all v ∈ Levels[currLevel] in parallel", Algorithm 2)
as numpy data parallelism: each BFS level is processed by one
gather/scatter pipeline over the CSR arrays instead of a parallel-for.
The per-level work, visitation order and produced quantities (``dist``,
``σ``, level buckets) are exactly those of the paper's Algorithm 2
Phase 1.

The module also provides the *blocked* BFS variants used for the
paper's α/β counting (§3.1: "α_SGi(a) is the number of vertices which a
can reach without passing through SGi in G, and it can be obtained by
BFS; β_SGi(a) ... can be obtained by reverse BFS") and the
direction-optimising BFS used by the ``hybrid`` comparator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.types import SCORE_DTYPE, VERTEX_DTYPE

__all__ = [
    "BFSResult",
    "expand_frontier",
    "bfs",
    "bfs_levels",
    "bfs_sigma",
    "bfs_sigma_hybrid",
    "bfs_blocked",
    "blocked_reach",
    "reverse_bfs_blocked",
]


def expand_frontier(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather all arcs leaving ``frontier``.

    Returns ``(dst, src)`` arrays listing every arc ``src -> dst`` with
    ``src`` in the frontier, duplicates included. This is the single
    hot primitive of the package; it contains no Python-level loop.
    """
    ends = indptr[frontier + 1]
    starts = indptr[frontier]
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        return empty, empty
    # arange in the narrow vertex dtype while the arc block fits (per-
    # vertex offsets are bounded by the max degree); int64 otherwise
    offset_dtype = (
        VERTEX_DTYPE if total <= np.iinfo(VERTEX_DTYPE).max else np.int64
    )
    cum = np.cumsum(counts)
    offsets = np.arange(total, dtype=offset_dtype) - np.repeat(
        cum - counts, counts
    )
    dst = indices[np.repeat(starts, counts) + offsets]
    src = np.repeat(frontier, counts).astype(VERTEX_DTYPE, copy=False)
    return dst, src


@dataclass
class BFSResult:
    """Everything Phase 1 of Algorithm 2 produces for one source.

    Attributes
    ----------
    source:
        The BFS root ``s``.
    dist:
        int32 distances from the root; ``-1`` marks unreachable
        vertices.
    sigma:
        float64 shortest-path counts σ_sv.
    levels:
        ``levels[d]`` is the array of vertices at distance ``d``
        (the paper's ``Levels[]`` buckets).
    level_arcs:
        When requested, ``level_arcs[d]`` holds the DAG arcs
        ``(src, dst)`` from distance ``d`` to ``d + 1`` — the
        shortest-path DAG sliced by level, reused verbatim by the
        backward (dependency) phase.
    edges_traversed:
        Number of arcs examined; feeds the TEPS metrics.
    """

    source: int
    dist: np.ndarray
    sigma: np.ndarray
    levels: List[np.ndarray]
    level_arcs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
    edges_traversed: int = 0

    @property
    def depth(self) -> int:
        """Eccentricity of the source within its reachable set."""
        return len(self.levels) - 1

    def reached(self) -> np.ndarray:
        """Boolean mask of vertices reachable from the source."""
        return self.dist >= 0


def bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Plain BFS distances from ``source`` (``-1`` = unreachable)."""
    return bfs_sigma(graph, source).dist


def bfs_levels(graph: CSRGraph, source: int) -> List[np.ndarray]:
    """The level buckets of a BFS from ``source``."""
    return bfs_sigma(graph, source).levels


def bfs_sigma(
    graph: CSRGraph,
    source: int,
    *,
    keep_level_arcs: bool = False,
) -> BFSResult:
    """Forward BFS computing distances, σ counts and level buckets.

    This is Algorithm 2 Phase 1. With ``keep_level_arcs=True`` the
    shortest-path-DAG arcs crossing each level boundary are retained so
    the backward phase can replay them without re-expanding
    neighbourhoods (trading O(m) memory for a second traversal).
    """
    n = graph.n
    dist = np.full(n, -1, dtype=np.int32)
    sigma = np.zeros(n, dtype=SCORE_DTYPE)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.asarray([source], dtype=VERTEX_DTYPE)
    levels = [frontier]
    level_arcs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = (
        [] if keep_level_arcs else None
    )
    edges = 0
    level = 0
    indptr, indices = graph.out_indptr, graph.out_indices
    while frontier.size:
        dst, src = expand_frontier(indptr, indices, frontier)
        edges += dst.size
        if dst.size == 0:
            if level_arcs is not None:
                level_arcs.append(
                    (np.empty(0, VERTEX_DTYPE), np.empty(0, VERTEX_DTYPE))
                )
            break
        fresh = dst[dist[dst] < 0]
        nxt = np.unique(fresh)
        dist[nxt] = level + 1
        tree = dist[dst] == level + 1
        np.add.at(sigma, dst[tree], sigma[src[tree]])
        if level_arcs is not None:
            level_arcs.append((src[tree], dst[tree]))
        if nxt.size == 0:
            break
        levels.append(nxt)
        frontier = nxt
        level += 1
    return BFSResult(
        source=source,
        dist=dist,
        sigma=sigma,
        levels=levels,
        level_arcs=level_arcs,
        edges_traversed=edges,
    )


def bfs_sigma_hybrid(
    graph: CSRGraph,
    source: int,
    *,
    alpha: float = 4.0,
    keep_level_arcs: bool = False,
) -> BFSResult:
    """Direction-optimising BFS with σ counting (the ``hybrid`` idea).

    Expands top-down while the frontier's outgoing-arc volume is small
    and switches to bottom-up (scan unvisited vertices' in-arcs) once
    the frontier covers more than ``1/alpha`` of the remaining arcs —
    Beamer's direction-optimising heuristic as used by Ligra's BC.
    Unlike plain BFS, σ counting forbids the classic bottom-up early
    exit (every parent must be counted), so bottom-up steps always scan
    all in-arcs of the candidates; this is why hybrid helps BC less
    than it helps reachability, which the paper's Table 2 reflects.

    The produced ``dist``/``sigma``/``levels`` are identical to
    :func:`bfs_sigma`; only the work performed differs.
    """
    n = graph.n
    dist = np.full(n, -1, dtype=np.int32)
    sigma = np.zeros(n, dtype=SCORE_DTYPE)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.asarray([source], dtype=VERTEX_DTYPE)
    levels = [frontier]
    level_arcs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = (
        [] if keep_level_arcs else None
    )
    edges = 0
    level = 0
    out_ip, out_ix = graph.out_indptr, graph.out_indices
    in_ip, in_ix = graph.in_indptr, graph.in_indices
    unvisited = np.flatnonzero(dist < 0).astype(VERTEX_DTYPE)
    while frontier.size:
        frontier_arcs = int(
            (out_ip[frontier + 1] - out_ip[frontier]).sum()
        )
        unvisited_arcs = int((in_ip[unvisited + 1] - in_ip[unvisited]).sum())
        bottom_up = frontier_arcs * alpha > unvisited_arcs and unvisited.size
        if bottom_up:
            # scan candidates' in-arcs for parents at the current level
            parents, cand = expand_frontier(in_ip, in_ix, unvisited)
            edges += parents.size
            hit = dist[parents] == level
            np.add.at(sigma, cand[hit], sigma[parents[hit]])
            nxt = np.unique(cand[hit])
            dist[nxt] = level + 1
            if level_arcs is not None:
                level_arcs.append((parents[hit], cand[hit]))
        else:
            dst, src = expand_frontier(out_ip, out_ix, frontier)
            edges += dst.size
            fresh = dst[dist[dst] < 0]
            nxt = np.unique(fresh)
            dist[nxt] = level + 1  # set before masking tree arcs
            tree = dist[dst] == level + 1
            np.add.at(sigma, dst[tree], sigma[src[tree]])
            if level_arcs is not None:
                level_arcs.append((src[tree], dst[tree]))
        if nxt.size == 0:
            break
        levels.append(nxt)
        frontier = nxt
        unvisited = unvisited[dist[unvisited] < 0]
        level += 1
    return BFSResult(
        source=source,
        dist=dist,
        sigma=sigma,
        levels=levels,
        level_arcs=level_arcs,
        edges_traversed=edges,
    )


def blocked_reach(
    graph: CSRGraph,
    source: int,
    blocked: np.ndarray,
    *,
    reverse: bool = False,
) -> Tuple[int, int]:
    """``(reached, arcs examined)`` of a BFS from ``source`` avoiding ``blocked``.

    Follows out-arcs, or in-arcs when ``reverse``. The source is always
    expanded even if flagged blocked (it is the articulation point
    itself); blocked vertices are never entered and never counted.
    Every expanded vertex's arcs count as examined.
    """
    indptr = graph.in_indptr if reverse else graph.out_indptr
    indices = graph.in_indices if reverse else graph.out_indices
    seen = blocked.copy()
    seen[source] = True
    frontier = np.asarray([source], dtype=VERTEX_DTYPE)
    reached = 0
    arcs = 0
    while frontier.size:
        dst, _src = expand_frontier(indptr, indices, frontier)
        arcs += int(dst.size)
        if dst.size == 0:
            break
        nxt = np.unique(dst[~seen[dst]])
        if nxt.size == 0:
            break
        seen[nxt] = True
        reached += int(nxt.size)
        frontier = nxt
    return reached, arcs


def bfs_blocked(graph: CSRGraph, source: int, blocked: np.ndarray) -> int:
    """Vertices reachable from ``source`` without entering ``blocked``.

    Implements the paper's α count: with ``blocked = SGi \\ {a}`` this
    is "the number of vertices which a can reach without passing
    through SGi in G", excluding ``a`` itself.
    """
    return blocked_reach(graph, source, blocked)[0]


def reverse_bfs_blocked(
    graph: CSRGraph, source: int, blocked: np.ndarray
) -> int:
    """Vertices that reach ``source`` without entering ``blocked``.

    Implements the paper's β count via reverse BFS. For undirected
    graphs this coincides with :func:`bfs_blocked`.
    """
    return blocked_reach(graph, source, blocked, reverse=True)[0]
