"""Tests for α/β counting (blocked BFS and block-cut-tree DP)."""

import numpy as np
import networkx as nx
import pytest

from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.errors import PartitionError
from repro.generators.suite import SUITE_SPECS, analogue_graph
from repro.graph.build import from_edges, from_networkx


def brute_alpha_beta(g, nxg, partition):
    """Direct-definition α/β via networkx reachability."""
    out = {}
    for sg in partition.subgraphs:
        sg_verts = set(sg.vertices.tolist())
        for a_local in sg.boundary_arts().tolist():
            a = int(sg.vertices[a_local])
            allowed = [v for v in range(g.n) if v not in sg_verts or v == a]
            sub = nxg.subgraph(allowed)
            if nxg.is_directed():
                alpha = len(nx.descendants(sub, a))
                beta = len(nx.ancestors(sub, a))
            else:
                comp = nx.node_connected_component(sub, a)
                alpha = beta = len(comp) - 1
            out[(sg.index, a)] = (alpha, beta)
    return out


@pytest.mark.parametrize("method", ["bfs", "tree"])
def test_matches_brute_force_undirected(method):
    for seed in range(6):
        nxg = nx.gnm_random_graph(35, 45, seed=seed)
        g = from_networkx(nxg, n=35)
        partition = graph_partition(g)
        compute_alpha_beta(g, partition, method=method)
        expected = brute_alpha_beta(g, nxg, partition)
        for sg in partition.subgraphs:
            for a_local in sg.boundary_arts().tolist():
                a = int(sg.vertices[a_local])
                alpha, beta = expected[(sg.index, a)]
                assert sg.alpha[a_local] == alpha, (seed, a, method)
                assert sg.beta[a_local] == beta, (seed, a, method)


@pytest.mark.parametrize("method", ["bfs", "tree"])
def test_matches_brute_force_directed(method):
    for seed in range(6):
        nxg = nx.gnm_random_graph(30, 45, seed=seed, directed=True)
        # add pendant sources to create asymmetric alpha/beta
        rng = np.random.default_rng(seed)
        for i in range(6):
            nxg.add_edge(30 + i, int(rng.integers(0, 30)))
        g = from_networkx(nxg, n=36)
        partition = graph_partition(g)
        compute_alpha_beta(g, partition, method=method)
        expected = brute_alpha_beta(g, nxg, partition)
        for sg in partition.subgraphs:
            for a_local in sg.boundary_arts().tolist():
                a = int(sg.vertices[a_local])
                alpha, beta = expected[(sg.index, a)]
                assert sg.alpha[a_local] == alpha, (seed, a, method)
                assert sg.beta[a_local] == beta, (seed, a, method)


def _assert_tree_equals_bfs(g):
    p1 = graph_partition(g)
    p2 = graph_partition(g)
    compute_alpha_beta(g, p1, method="bfs")
    compute_alpha_beta(g, p2, method="tree")
    for sg1, sg2 in zip(p1.subgraphs, p2.subgraphs):
        assert np.array_equal(sg1.alpha, sg2.alpha)
        assert np.array_equal(sg1.beta, sg2.beta)


def test_tree_equals_bfs_on_undirected(zoo_entry):
    _name, g, _nxg = zoo_entry
    if not g.directed:
        _assert_tree_equals_bfs(g)


@pytest.mark.parametrize(
    "name", [n for n, spec in SUITE_SPECS.items() if spec.directed]
)
def test_tree_equals_bfs_on_directed_suite(name):
    _assert_tree_equals_bfs(analogue_graph(name, scale=1))


def test_tree_accepts_directed():
    # two weakly connected components: a chain of directed blocks
    # (a 3-cycle, a one-way triangle, a 2-cycle) with pendant sources
    # and sinks, and a one-way path; plus an isolated vertex
    edges = [
        (0, 1), (1, 2), (2, 0),
        (2, 3), (3, 4), (2, 4),
        (4, 5), (5, 4),
        (6, 0), (7, 3), (5, 8),
        (9, 10), (10, 11), (11, 12),
    ]
    nxg = nx.DiGraph(edges)
    nxg.add_node(13)
    g = from_edges(edges, n=14, directed=True)
    for threshold in (0, 8):
        partition = graph_partition(g, threshold=threshold)
        stats = compute_alpha_beta(g, partition, method="tree")
        assert stats.method == "tree"
        assert stats.bfs_runs == 0
        expected = brute_alpha_beta(g, nxg, partition)
        assert stats.pairs == len(expected)
        for sg in partition.subgraphs:
            for a_local in sg.boundary_arts().tolist():
                a = int(sg.vertices[a_local])
                assert (sg.alpha[a_local], sg.beta[a_local]) == expected[
                    (sg.index, a)
                ], (threshold, a)


def test_auto_dispatch():
    g_und = from_edges([(0, 1), (1, 2)])
    stats = compute_alpha_beta(g_und, graph_partition(g_und), method="auto")
    assert stats.method == "tree"
    g_dir = from_edges([(0, 1), (1, 2)], directed=True)
    stats = compute_alpha_beta(g_dir, graph_partition(g_dir), method="auto")
    assert stats.method == "tree"


def _directed_triangle_chain(blocks):
    """v_i -> x_i -> v_{i+1} plus v_i -> v_{i+1}, for i < ``blocks``.

    ``v_i`` is vertex ``2i`` and ``x_i`` is ``2i + 1``; consecutive
    blocks share ``v_{i+1}``, so the block-cut tree is a path.
    """
    edges = []
    for i in range(blocks):
        v, x, w = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(v, x), (x, w), (v, w)]
    return from_edges(edges, n=2 * blocks + 1, directed=True)


def test_tree_deep_directed_chain_linear_work():
    blocks = 2000
    g = _directed_triangle_chain(blocks)
    partition = graph_partition(g, threshold=0)
    assert partition.num_subgraphs == blocks
    stats = compute_alpha_beta(g, partition, method="tree")
    assert stats.bfs_runs == 0
    assert stats.pairs == 2 * (blocks - 1)
    bound = sum(
        sg.boundary_arts().size * sg.num_arcs for sg in partition.subgraphs
    )
    assert 0 < stats.arcs_examined <= bound
    # v_{i+1} reaches everything downstream of block i and nothing
    # reaches it from there; v_i is reached from everything upstream
    for sg in partition.subgraphs:
        lo = int(sg.vertices.min()) // 2  # the block index i
        for a_local in sg.boundary_arts().tolist():
            a = int(sg.vertices[a_local])
            if a == 2 * lo:  # v_i
                assert (sg.alpha[a_local], sg.beta[a_local]) == (0, 2 * lo)
            else:  # v_{i+1}
                away = 2 * (blocks - 1 - lo)
                assert (sg.alpha[a_local], sg.beta[a_local]) == (away, 0)


def _expanded_arcs(reach, arcs_of, a):
    """Arcs a BFS from ``a`` and a reverse BFS to ``a`` examine.

    Each expands ``a`` and every vertex it reaches in ``reach`` and
    examines all of that vertex's out- (in-) arcs in ``arcs_of``.
    """
    fwd = nx.descendants(reach, a) | {a}
    bwd = nx.ancestors(reach, a) | {a}
    return sum(arcs_of.out_degree(u) for u in fwd) + sum(
        arcs_of.in_degree(u) for u in bwd
    )


def test_arcs_examined_tallies(und_random):
    nxg = nx.gnm_random_graph(30, 45, seed=4, directed=True)
    for i in range(6):
        nxg.add_edge(30 + i, (7 * i) % 30)
    g = from_networkx(nxg, n=36)

    # blocked BFS: reach avoids SGi \ {a}, arcs are G's
    partition = graph_partition(g)
    bfs = compute_alpha_beta(g, partition, method="bfs")
    expected = 0
    for sg in partition.subgraphs:
        inside = set(sg.vertices.tolist())
        for a_local in sg.boundary_arts().tolist():
            a = int(sg.vertices[a_local])
            sub = nxg.subgraph([v for v in nxg if v not in inside or v == a])
            expected += _expanded_arcs(sub, nxg, a)
    assert bfs.pairs > 0 and bfs.bfs_runs == 2 * bfs.pairs
    assert bfs.arcs_examined == expected

    # tree: reach and arcs both inside the pair's own sub-graph
    partition = graph_partition(g)
    tree = compute_alpha_beta(g, partition, method="tree")
    expected = 0
    for sg in partition.subgraphs:
        local = nx.DiGraph(zip(*(x.tolist() for x in sg.graph.arcs())))
        local.add_nodes_from(range(sg.num_vertices))
        for a in sg.boundary_arts().tolist():
            expected += _expanded_arcs(local, local, a)
    assert tree.arcs_examined == expected

    und = compute_alpha_beta(und_random, graph_partition(und_random))
    assert und.arcs_examined == 0


def test_unknown_method():
    g = from_edges([(0, 1)])
    with pytest.raises(PartitionError, match="unknown"):
        compute_alpha_beta(g, graph_partition(g), method="nope")


def test_undirected_alpha_equals_beta(und_random):
    partition = graph_partition(und_random)
    compute_alpha_beta(und_random, partition, method="bfs")
    for sg in partition.subgraphs:
        assert np.array_equal(sg.alpha, sg.beta)


def test_alpha_sums_on_path():
    # path 0-1-2-3-4: whatever contiguous chunks the partitioner
    # produces, for a boundary articulation point a of a chunk
    # [lo..hi], alpha counts the vertices strictly beyond a on its
    # outward side: a vertices to the left of lo, or 4 - a to the
    # right of hi
    g = from_edges([(i, i + 1) for i in range(4)])
    partition = graph_partition(g, threshold=0)
    compute_alpha_beta(g, partition)
    checked = 0
    for sg in partition.subgraphs:
        verts = sorted(sg.vertices.tolist())
        lo, hi = verts[0], verts[-1]
        assert verts == list(range(lo, hi + 1))  # chunks are contiguous
        for a_local in sg.boundary_arts().tolist():
            a = int(sg.vertices[a_local])
            away = a if a == lo else 4 - a
            assert sg.alpha[a_local] == away
            checked += 1
    assert checked >= 2


def test_nonzero_only_on_boundary(und_random):
    partition = graph_partition(und_random)
    compute_alpha_beta(und_random, partition)
    for sg in partition.subgraphs:
        off_boundary = ~sg.is_boundary_art
        assert (sg.alpha[off_boundary] == 0).all()
        assert (sg.beta[off_boundary] == 0).all()


def test_stats_pairs_count(und_random):
    partition = graph_partition(und_random)
    stats = compute_alpha_beta(und_random, partition)
    expected = sum(sg.boundary_arts().size for sg in partition.subgraphs)
    assert stats.pairs == expected
