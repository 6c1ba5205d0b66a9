"""Ablation A2 — APGRE feature toggles.

Quantifies each design choice separately: total-redundancy elimination
(γ/R) on/off, and the α/β method (the paper's blocked BFS vs this
reproduction's block-cut-tree DP) on a directed and an undirected
graph.
"""

import pytest

from repro.bench.experiments import ablation_features
from repro.bench.workloads import bench_graph_names, get_graph
from repro.core.apgre import apgre_bc
from repro.core.config import APGREConfig

from conftest import one_shot

_VARIANTS = {
    "full": APGREConfig(),
    "no-gamma": APGREConfig(eliminate_pendants=False),
    "ab-bfs": APGREConfig(alpha_beta_method="bfs"),
    "ab-tree": APGREConfig(alpha_beta_method="tree"),
}


@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_apgre_variant(benchmark, variant):
    names = bench_graph_names()
    name = "Email-EuAll" if "Email-EuAll" in names else names[0]
    graph = get_graph(name)
    config = _VARIANTS[variant]
    scores = one_shot(
        benchmark,
        apgre_bc,
        graph,
        eliminate_pendants=config.eliminate_pendants,
        alpha_beta_method=config.alpha_beta_method,
    )
    assert scores.shape == (graph.n,)
    benchmark.group = f"ablation-{name}"


def test_report_ablation_features(benchmark, report):
    result = one_shot(benchmark, ablation_features)
    assert len(result.rows) >= 3
    report(result)
