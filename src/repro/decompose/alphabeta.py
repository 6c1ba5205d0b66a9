"""α/β counting for boundary articulation points (paper §3.1/§4).

For each sub-graph ``SGi`` and each of its boundary articulation
points ``a``:

* ``α_SGi(a)`` — "the number of vertices which a can reach without
  passing through SGi in G", obtained by a *blocked BFS* from ``a``
  that may not enter ``SGi \\ {a}``;
* ``β_SGi(a)`` — "the number of vertices which can reach a ... without
  passing through SGi in G", obtained by a blocked *reverse* BFS.

Two implementations are provided:

``method="bfs"``
    The paper's direct method (one blocked BFS + one blocked reverse
    BFS per (sub-graph, articulation-point) pair). Works for directed
    and undirected graphs; cost O(Σ|A_sgi| · (V+E)).
``method="tree"``
    A dynamic program over the sub-graph-level block-cut tree (this
    reproduction's main algorithmic extension). A path leaving ``SGj``
    through an articulation point ``b`` can only come back through
    ``b``, so reachability composes along the tree: with ``cnt(a, SGj)``
    the vertices ``a`` reaches inside ``SGj``'s own arcs (excluding
    ``a``),

    * ``F(a, SGj) = cnt(a, SGj) + Σ W(b, SGj)`` over the other boundary
      articulation points ``b`` of ``SGj`` that ``a`` reaches there,
    * ``W(b, SGj) = Σ F(b, SGk)`` over the other sub-graphs ``SGk ∋ b``,

    and ``α_SGi(a) = W(a, SGi)``; β is the same on in-arcs. Directed
    inputs get every ``cnt`` and the art-to-art reach relation from one
    batched BFS over the disjoint union of the sub-graphs, then resolve
    ``F``/``W`` with one post-order and one pre-order sweep of the
    rooted tree, vectorised per tree level: O(V+E + Σ_i |A_i|·|E_i|).
    Undirected inputs reach every vertex of a sub-graph, so ``F`` is a
    subtree weight and α == β; they skip the local reach for an O(V+E)
    pass. Equivalence with the BFS method is asserted by property tests
    and quantified by the feature-ablation benchmark.
``method="auto"``
    ``tree``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.decompose.partition import Partition, Subgraph
from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import blocked_reach

__all__ = ["AlphaBetaStats", "compute_alpha_beta"]

#: Row-chunk budget of the batched local reach: visited-bitmap slots
#: plus arcs (Σ n_i + |E_i| over the pairs of one chunk).
_REACH_BUDGET = 1 << 22


@dataclass
class AlphaBetaStats:
    """Accounting for the α/β phase (feeds the Figure-8 breakdown)."""

    method: str
    pairs: int  # (sub-graph, articulation point) pairs processed
    bfs_runs: int  # blocked BFS invocations (0 for the tree DP)
    # arcs examined: the blocked BFS runs ("bfs") or the batched
    # local reach inside each pair's own sub-graph ("tree"; at most
    # Σ_i |A_i|·|E_i| per direction, 0 on undirected inputs)
    arcs_examined: int = 0


def _alpha_beta_bfs(graph: CSRGraph, partition: Partition) -> AlphaBetaStats:
    """The paper's blocked-BFS method (§4, step 2)."""
    pairs = 0
    runs = 0
    arcs = 0
    blocked = np.zeros(graph.n, dtype=bool)
    for sg in partition.subgraphs:
        arts = sg.boundary_arts()
        if arts.size == 0:
            continue
        blocked[sg.vertices] = True
        for a_local in arts.tolist():
            a_global = int(sg.vertices[a_local])
            blocked[a_global] = False
            reached, examined = blocked_reach(graph, a_global, blocked)
            sg.alpha[a_local] = reached
            arcs += examined
            runs += 1
            if graph.directed:
                reached, examined = blocked_reach(
                    graph, a_global, blocked, reverse=True
                )
                arcs += examined
                runs += 1
            sg.beta[a_local] = reached
            blocked[a_global] = True
            pairs += 1
        blocked[sg.vertices] = False
    return AlphaBetaStats(
        method="bfs", pairs=pairs, bfs_runs=runs, arcs_examined=arcs
    )


@dataclass
class _PairForest:
    """The sub-graph-level block-cut forest, one tree edge per pair.

    Pairs ``(SGi, a)`` are grouped by sub-graph in partition order.
    Each tree is rooted at its first sub-graph, so every articulation
    point has a parent sub-graph. A pair is *down* when ``a`` is the
    parent of ``SGi`` (it looks down into ``SGi``'s subtree) and *up*
    when ``a`` is a child of ``SGi``.
    """

    sg: np.ndarray  # per pair: sub-graph index
    local: np.ndarray  # per pair: local id of a in SGi
    art: np.ndarray  # per pair: compact articulation-point id
    group: np.ndarray  # per pair: first pair of its sub-graph
    size: np.ndarray  # per pair: |A_i| of its sub-graph
    down: np.ndarray  # per pair: a is the parent of SGi
    depth: np.ndarray  # per pair: depth of SGi in its tree
    up_pair: np.ndarray  # per art: the pair (parent sub-graph, art)
    order: np.ndarray  # tree nodes (sub-graphs, then k + art) in BFS order
    parent: np.ndarray  # per tree node: parent node, -1 for roots
    root: np.ndarray  # per tree node: its tree's root node

    @property
    def num_pairs(self) -> int:
        return int(self.sg.size)


def _pair_forest(partition: Partition) -> _PairForest:
    """Collect the pairs and root the block-cut forest (one BFS)."""
    subgraphs = partition.subgraphs
    k = len(subgraphs)
    empty = [np.empty(0, dtype=np.int64)]
    locals_ = [sg.boundary_arts().astype(np.int64) for sg in subgraphs]
    sizes = np.asarray([a.size for a in locals_], dtype=np.int64)
    pair_sg = np.repeat(np.arange(k, dtype=np.int64), sizes)
    local = np.concatenate(locals_ + empty)
    arts_global = np.concatenate(
        [sg.vertices[a] for sg, a in zip(subgraphs, locals_)] + empty
    )
    art_ids = np.flatnonzero(partition.boundary_art_flags)
    art = np.searchsorted(art_ids, arts_global)
    m = art_ids.size
    first = np.cumsum(sizes) - sizes

    # node adjacency: a sub-graph's pairs are contiguous; an art's
    # pairs are gathered by a stable sort on art id
    by_art = np.argsort(art, kind="stable")
    art_ptr = np.concatenate([[0], np.cumsum(np.bincount(art, minlength=m))])
    sg_of_pair = pair_sg.tolist()
    art_of_pair = art.tolist()
    by_art_l = by_art.tolist()
    art_ptr_l = art_ptr.tolist()
    first_l = first.tolist()
    sizes_l = sizes.tolist()

    parent = [-1] * (k + m)
    root = [-1] * (k + m)
    depth = [0] * (k + m)
    order: List[int] = []
    for r in range(k):
        if root[r] >= 0 or sizes_l[r] == 0:
            continue
        root[r] = r
        head = len(order)
        order.append(r)
        while head < len(order):
            u = order[head]
            head += 1
            if u < k:
                nbrs = [
                    k + art_of_pair[p]
                    for p in range(first_l[u], first_l[u] + sizes_l[u])
                ]
            else:
                nbrs = [
                    sg_of_pair[by_art_l[j]]
                    for j in range(art_ptr_l[u - k], art_ptr_l[u - k + 1])
                ]
            for v in nbrs:
                if root[v] < 0:
                    root[v] = r
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    order.append(v)
    parent = np.asarray(parent, dtype=np.int64)
    down = parent[pair_sg] == k + art
    up_pair = np.zeros(m, dtype=np.int64)
    up_pair[art[~down]] = np.flatnonzero(~down)
    return _PairForest(
        sg=pair_sg,
        local=local,
        art=art,
        group=np.repeat(first, sizes),
        size=np.repeat(sizes, sizes),
        down=down,
        depth=np.asarray(depth, dtype=np.int64)[pair_sg],
        up_pair=up_pair,
        order=np.asarray(order, dtype=np.int64),
        parent=parent,
        root=np.asarray(root, dtype=np.int64),
    )


def _local_reach(
    subgraphs: List[Subgraph], forest: _PairForest, *, reverse: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Batched BFS from every pair's art inside its own sub-graph.

    One level-synchronous BFS over the disjoint union of the
    sub-graphs' CSRs, one row per pair, with a compact visited bitmap
    of ``n_i`` slots per row (rows in chunks under
    :data:`_REACH_BUDGET`). Returns ``cnt`` (vertices reached per pair,
    excluding its art), the reach relation as ``(row, col)`` pair ids
    (``col``'s art reached from ``row``'s art in their shared
    sub-graph) and the number of arcs examined.
    """
    active = np.unique(forest.sg)
    graphs = [subgraphs[i].graph for i in active.tolist()]
    n_sg = np.asarray([g.n for g in graphs], dtype=np.int64)
    m_sg = np.asarray([g.num_arcs for g in graphs], dtype=np.int64)
    off = np.cumsum(n_sg) - n_sg
    arc_off = np.cumsum(m_sg) - m_sg
    ptrs = [(g.in_indptr if reverse else g.out_indptr)[:-1] for g in graphs]
    idxs = [g.in_indices if reverse else g.out_indices for g in graphs]
    indptr = np.append(
        np.concatenate(ptrs).astype(np.int64) + np.repeat(arc_off, n_sg),
        m_sg.sum(),
    )
    indices = np.concatenate(idxs).astype(np.int64) + np.repeat(off, m_sg)

    pos = np.searchsorted(active, forest.sg)
    n_row = n_sg[pos]
    base_all = np.cumsum(n_row) - n_row  # row r's first bitmap slot
    shift_all = base_all - off[pos]  # union vertex -> bitmap slot
    start_all = off[pos] + forest.local  # row r's art, as a union vertex
    cost = np.cumsum(n_row + m_sg[pos])

    num = forest.num_pairs
    cnt = np.zeros(num, dtype=np.int64)
    rel_rows: List[np.ndarray] = []
    rel_cols: List[np.ndarray] = []
    arcs = 0
    r0 = 0
    while r0 < num:
        spent = cost[r0 - 1] if r0 else 0
        r1 = int(np.searchsorted(cost, spent + _REACH_BUDGET, "right"))
        r1 = max(r0 + 1, r1)
        b0 = base_all[r0]
        base = base_all[r0:r1] - b0
        shift = shift_all[r0:r1] - b0
        nslots = int(base[-1] + n_row[r1 - 1])
        visited = np.zeros(nslots, dtype=bool)
        owner = np.empty(nslots, dtype=np.int32)  # dedupe buffer
        rows = np.arange(r1 - r0)
        slots = start_all[r0:r1] + shift
        visited[slots] = True
        while rows.size:
            verts = slots - shift[rows]
            starts = indptr[verts]
            counts = indptr[verts + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            arcs += total
            ends = np.cumsum(counts)
            arc = np.repeat(starts - ends + counts, counts) + np.arange(total)
            rows = np.repeat(rows, counts)
            slots = indices[arc] + shift[rows]
            fresh = ~visited[slots]
            slots, rows = slots[fresh], rows[fresh]
            # keep one arc per newly reached slot (its last writer)
            ids = np.arange(slots.size)
            owner[slots] = ids
            keep = owner[slots] == ids
            slots, rows = slots[keep], rows[keep]
            visited[slots] = True
        cnt[r0:r1] = np.add.reduceat(visited, base, dtype=np.int64) - 1

        # reach relation: every (row, other pair of the same sub-graph)
        size = forest.size[r0:r1]
        cand_r = np.repeat(np.arange(r0, r1), size)
        ends = np.cumsum(size)
        cand_c = np.repeat(forest.group[r0:r1] - ends + size, size) + np.arange(
            int(ends[-1])
        )
        hit = visited[base[cand_r - r0] + forest.local[cand_c]]
        hit &= cand_c != cand_r
        rel_rows.append(cand_r[hit])
        rel_cols.append(cand_c[hit])
        r0 = r1
    return cnt, np.concatenate(rel_rows), np.concatenate(rel_cols), arcs


def _alpha_beta_tree_directed(
    partition: Partition, forest: _PairForest
) -> int:
    """Directed tree DP: batched local reach, then two tree sweeps."""
    # sweep levels: down pairs deepest first (post-order), then up
    # pairs shallowest first (pre-order)
    key = np.where(forest.down, -forest.depth, forest.depth + 1)
    perm = np.argsort(key, kind="stable")
    level_starts = np.flatnonzero(np.diff(key[perm], prepend=key[perm[0]] - 1))
    level_ends = np.append(level_starts[1:], perm.size)
    widths = level_ends - level_starts
    level_of = np.empty(perm.size, dtype=np.int64)
    level_of[perm] = np.repeat(np.arange(level_starts.size), widths)
    slot = np.empty(perm.size, dtype=np.int64)  # row position within its level
    slot[perm] = np.arange(perm.size) - np.repeat(level_starts, widths)

    art, down, up_pair = forest.art, forest.down, forest.up_pair
    arcs = 0
    results = []
    for reverse in (False, True):
        cnt, rows, cols, examined = _local_reach(
            partition.subgraphs, forest, reverse=reverse
        )
        arcs += examined
        by_level = np.argsort(level_of[rows], kind="stable")
        rows, cols = rows[by_level], cols[by_level]
        edge_ptr = np.searchsorted(level_of[rows], np.arange(level_starts.size + 1))
        f = np.zeros(perm.size, dtype=np.float64)
        down_sum = np.zeros(up_pair.size, dtype=np.float64)

        def w(c: np.ndarray) -> np.ndarray:
            # W(b, SG) for pairs c = (SG, b): every branch at b but SG's
            return down_sum[art[c]] + np.where(
                down[c], f[up_pair[art[c]]] - f[c], 0.0
            )

        for lvl in range(level_starts.size):
            level = perm[level_starts[lvl]:level_ends[lvl]]
            e0, e1 = edge_ptr[lvl], edge_ptr[lvl + 1]
            f[level] = cnt[level] + np.bincount(
                slot[rows[e0:e1]], weights=w(cols[e0:e1]), minlength=level.size
            )
            if down[level[0]]:
                np.add.at(down_sum, art[level], f[level])
        results.append(w(np.arange(perm.size)))

    _store(partition, forest, *results)
    return arcs


def _alpha_beta_tree_undirected(
    partition: Partition, forest: _PairForest
) -> None:
    """Undirected tree DP: α == β is a side weight of the forest.

    With node weights ``weight(SGi)`` = interior vertex count (vertices
    minus boundary articulation points) and ``weight(a)`` = 1,
    ``α_SGi(a)`` is the total weight of the tree component containing
    ``a`` after deleting the edge ``(a, SGi)``, minus 1 for ``a``
    itself. One rooted pass computes all subtree sums; the values for
    both orientations of every edge follow by subtraction.
    """
    subgraphs = partition.subgraphs
    k = len(subgraphs)
    weights = np.ones(forest.parent.size, dtype=np.int64)
    for i, sg in enumerate(subgraphs):
        weights[i] = sg.num_vertices - int(sg.is_boundary_art.sum())
    subtree = weights.copy()
    parent = forest.parent.tolist()
    for u in forest.order[::-1].tolist():
        if parent[u] >= 0:
            subtree[parent[u]] += subtree[u]
    total = subtree[forest.root[forest.sg]]
    node = k + forest.art
    side = np.where(forest.down, total - subtree[forest.sg], subtree[node])
    _store(partition, forest, side - 1, side - 1)


def _store(
    partition: Partition, forest: _PairForest, alpha: np.ndarray, beta: np.ndarray
) -> None:
    """Scatter per-pair α/β into the sub-graphs' arrays."""
    subgraphs = partition.subgraphs
    for i, a_local, a, b in zip(
        forest.sg.tolist(), forest.local.tolist(), alpha.tolist(), beta.tolist()
    ):
        subgraphs[i].alpha[a_local] = a
        subgraphs[i].beta[a_local] = b


def _alpha_beta_tree(graph: CSRGraph, partition: Partition) -> AlphaBetaStats:
    """Block-cut-tree dynamic program (see the module docstring)."""
    forest = _pair_forest(partition)
    arcs = 0
    if forest.num_pairs:
        if graph.directed:
            arcs = _alpha_beta_tree_directed(partition, forest)
        else:
            _alpha_beta_tree_undirected(partition, forest)
    return AlphaBetaStats(
        method="tree", pairs=forest.num_pairs, bfs_runs=0, arcs_examined=arcs
    )


def compute_alpha_beta(
    graph: CSRGraph, partition: Partition, *, method: str = "auto"
) -> AlphaBetaStats:
    """Fill every sub-graph's ``alpha``/``beta`` arrays in place.

    See the module docstring for the available methods. Returns the
    phase statistics used by the execution-breakdown metrics.
    """
    if method == "auto":
        method = "tree"
    if method == "bfs":
        return _alpha_beta_bfs(graph, partition)
    if method == "tree":
        return _alpha_beta_tree(graph, partition)
    raise PartitionError(f"unknown alpha/beta method {method!r}")
