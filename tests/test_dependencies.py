"""Tests for the four-dependency kernel against direct definitions.

The paper defines each dependency as an explicit sum over pair
dependencies (σ_st(v)/σ_st weighted by α/β); these tests compute those
sums from networkx shortest-path counts and check the fused kernel
reproduces them exactly.
"""

import numpy as np
import networkx as nx
import pytest

from repro.baselines.common import WorkCounter
from repro.core.dependencies import accumulate_four_dependencies
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.errors import AlgorithmError
from repro.graph.build import from_networkx
from repro.graph.convert import to_networkx
from repro.graph.traversal import bfs_sigma


def sigma_matrix(nxg, n):
    """σ[s][t] shortest-path counts for all pairs (0 if unreachable)."""
    sig = np.zeros((n, n))
    for s in range(n):
        sig[s, s] = 1
        lengths = nx.single_source_shortest_path_length(nxg, s)
        for t in lengths:
            if t != s:
                sig[s, t] = len(list(nx.all_shortest_paths(nxg, s, t)))
    return sig


def sigma_through(nxg, n, sig, s, v, t):
    """σ_st(v): shortest paths from s to t through interior v."""
    if v in (s, t):
        return 0.0
    lengths_s = nx.single_source_shortest_path_length(nxg, s)
    if t not in lengths_s or v not in lengths_s:
        return 0.0
    lengths_v = nx.single_source_shortest_path_length(nxg, v)
    if t not in lengths_v:
        return 0.0
    if lengths_s[v] + lengths_v[t] != lengths_s[t]:
        return 0.0
    return sig[s, v] * sig[v, t]


@pytest.mark.parametrize("directed", [False, True])
def test_four_dependencies_match_definitions(directed):
    """On every sub-graph of a random graph, each dependency array
    equals its defining sum."""
    nxg = nx.gnm_random_graph(26, 34, seed=3, directed=directed)
    g = from_networkx(nxg, n=26)
    partition = graph_partition(g)
    compute_alpha_beta(g, partition, method="bfs")
    for sg in partition.subgraphs:
        local = sg.graph
        if local.n < 2:
            continue
        nxl = to_networkx(local)
        sig = sigma_matrix(nxl, local.n)
        arts = set(sg.boundary_arts().tolist())
        for s in sg.roots.tolist()[:6]:
            res = bfs_sigma(local, s, keep_level_arcs=True)
            dep = accumulate_four_dependencies(
                res,
                alpha=sg.alpha,
                beta=sg.beta,
                is_art=sg.is_boundary_art,
            )
            reached = np.flatnonzero(res.dist >= 0)
            for v in reached.tolist():
                if v == s:
                    continue
                # in2in: Σ_t σ_st(v)/σ_st
                i2i = sum(
                    sigma_through(nxl, local.n, sig, s, v, t) / sig[s, t]
                    for t in range(local.n)
                    if sig[s, t] > 0
                )
                assert np.isclose(dep.delta_i2i[v], i2i), (s, v, "i2i")
                # in2out: Σ_a (σ_sa(v)/σ_sa + [v==a]) α(a)
                i2o = 0.0
                for a in arts:
                    if a == s or sig[s, a] == 0:
                        continue
                    if v == a:
                        i2o += float(sg.alpha[a])
                    else:
                        i2o += (
                            sigma_through(nxl, local.n, sig, s, v, a)
                            / sig[s, a]
                            * float(sg.alpha[a])
                        )
                assert np.isclose(dep.delta_i2o[v], i2o), (s, v, "i2o")
                # out2out
                if dep.source_is_art:
                    o2o = 0.0
                    for a in arts:
                        if a == s or sig[s, a] == 0:
                            continue
                        w = float(sg.beta[s]) * float(sg.alpha[a])
                        if v == a:
                            o2o += w
                        else:
                            o2o += (
                                sigma_through(nxl, local.n, sig, s, v, a)
                                / sig[s, a]
                                * w
                            )
                    assert np.isclose(dep.delta_o2o[v], o2o), (s, v, "o2o")
                else:
                    assert dep.delta_o2o[v] == 0


def test_size_o2i_is_beta_for_art_sources(und_random):
    partition = graph_partition(und_random)
    compute_alpha_beta(und_random, partition)
    for sg in partition.subgraphs:
        for s in sg.roots.tolist():
            res = bfs_sigma(sg.graph, s, keep_level_arcs=True)
            dep = accumulate_four_dependencies(
                res, alpha=sg.alpha, beta=sg.beta, is_art=sg.is_boundary_art
            )
            if sg.is_boundary_art[s]:
                assert dep.size_o2i == float(sg.beta[s])
            else:
                assert dep.size_o2i == 0.0


def test_requires_level_arcs(und_random):
    res = bfs_sigma(und_random, 0)  # no level arcs kept
    n = und_random.n
    with pytest.raises(AlgorithmError, match="keep_level_arcs"):
        accumulate_four_dependencies(
            res,
            alpha=np.zeros(n),
            beta=np.zeros(n),
            is_art=np.zeros(n, dtype=bool),
        )


def test_counter_counts_dag_arcs(und_random):
    res = bfs_sigma(und_random, 0, keep_level_arcs=True)
    counter = WorkCounter()
    n = und_random.n
    accumulate_four_dependencies(
        res,
        alpha=np.zeros(n),
        beta=np.zeros(n),
        is_art=np.zeros(n, dtype=bool),
        counter=counter,
    )
    dag_arcs = sum(src.size for src, _dst in res.level_arcs)
    assert counter.edges == dag_arcs


def test_sweeps_fold_into_one_seeded_dependency(zoo_entry):
    """δ_o2o = β(s)·δ_i2o, so eq. 7's row is (1 + γ + β)·(δ_i2i + δ_i2o).

    The identities behind the batched path's single seeded sweep
    (docs/ALGORITHM.md §7), checked on the per-source reference.
    """
    _name, g, _nxg = zoo_entry
    if g.n == 0:
        return
    partition = graph_partition(g)
    compute_alpha_beta(g, partition)
    for sg in partition.subgraphs:
        for s in sg.roots.tolist():
            res = bfs_sigma(sg.graph, s, keep_level_arcs=True)
            dep = accumulate_four_dependencies(
                res, alpha=sg.alpha, beta=sg.beta, is_art=sg.is_boundary_art
            )
            np.testing.assert_allclose(
                dep.delta_o2o, dep.size_o2i * dep.delta_i2o, rtol=1e-12
            )
            reached = np.flatnonzero(res.dist >= 1)
            g_s = float(sg.gamma[s])
            i2i = dep.delta_i2i[reached]
            i2o = dep.delta_i2o[reached]
            row = (1.0 + g_s) * (i2i + i2o)
            if dep.source_is_art:
                row = row + dep.size_o2i * i2i + dep.delta_o2o[reached]
            np.testing.assert_allclose(
                row, (1.0 + g_s + dep.size_o2i) * (i2i + i2o), rtol=1e-12
            )
