"""The paper's evaluation experiments, one function per table/figure.

Every function returns an :class:`~repro.bench.runner.ExperimentResult`
whose rows/columns mirror the paper's layout; the DESIGN.md §4 index
maps each experiment to its modules. Timing-based experiments share
the memoised runs in :mod:`repro.bench.runner`, so e.g. Table 2,
Table 3 and Figure 6 measure each (algorithm, graph) pair once.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.registry import algorithm_names
from repro.bench.runner import ExperimentResult, time_algorithm
from repro.bench.workloads import (
    bench_graph_names,
    bench_scale,
    get_graph,
    get_partition,
    get_redundancy,
    get_suite,
    scaling_graph,
)
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.generators.suite import SUITE_SPECS
from repro.metrics.breakdown import phase_breakdown
from repro.metrics.stats import graph_stats, partition_stats
from repro.parallel.scheduler import lpt_makespan

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablation_threshold",
    "ablation_features",
    "cache_incremental",
]

#: Table-2/3 column order, as in the paper.
TABLE_ALGOS = [
    "serial",
    "APGRE",
    "preds",
    "succs",
    "lockSyncFree",
    "async",
    "hybrid",
]


def _timing_matrix() -> Dict[str, Dict[str, Optional[float]]]:
    """seconds[graph][algorithm], with None for '-' cells."""
    out: Dict[str, Dict[str, Optional[float]]] = {}
    for name, graph in get_suite().items():
        out[name] = {}
        for algo in TABLE_ALGOS:
            run = time_algorithm(algo, graph, graph_name=name)
            out[name][algo] = run.seconds if run else None
    return out


def table1() -> ExperimentResult:
    """Table 1: the evaluation graphs (analogue vs paper sizes)."""
    rows: List[List] = []
    for name in bench_graph_names():
        spec = SUITE_SPECS[name]
        stats = graph_stats(get_graph(name), name=name)
        rows.append(
            [
                name,
                spec.description,
                stats.num_vertices,
                stats.num_arcs,
                "Y" if stats.directed else "N",
                spec.paper_vertices,
                spec.paper_edges,
            ]
        )
    return ExperimentResult(
        exp_id="Table 1",
        title="Real-world graphs used for evaluation (synthetic analogues)",
        headers=[
            "Graph",
            "Description",
            "#Vertices",
            "#Edges",
            "Directed",
            "paper #V",
            "paper #E",
        ],
        rows=rows,
        notes=(
            f"analogue scale = {bench_scale()}; paper columns show the "
            "original SNAP/DIMACS sizes the analogues stand in for "
            "(DESIGN.md §1)"
        ),
    )


def table2() -> ExperimentResult:
    """Table 2: execution time in seconds per algorithm per graph."""
    matrix = _timing_matrix()
    rows: List[List] = []
    speedups: Dict[str, List[float]] = {a: [] for a in TABLE_ALGOS[1:]}
    for name, times in matrix.items():
        row: List = [name]
        serial = times["serial"]
        for algo in TABLE_ALGOS:
            row.append(times[algo])
            if algo != "serial" and times[algo] and serial:
                speedups[algo].append(serial / times[algo])
        rows.append(row)
    avg_row: List = ["Average speedup = serial/algorithm", 1.0]
    for algo in TABLE_ALGOS[1:]:
        vals = speedups[algo]
        avg_row.append(float(np.mean(vals)) if vals else None)
    # keep column count aligned (serial column holds the 1.0 baseline)
    rows.append(avg_row)
    return ExperimentResult(
        exp_id="Table 2",
        title="Performance in execution time (seconds)",
        headers=["Graph"] + TABLE_ALGOS,
        rows=rows,
        notes="'-' marks unsupported inputs (async is undirected-only)",
    )


def table3() -> ExperimentResult:
    """Table 3: search rate in MTEPS (= n·m / t / 1e6)."""
    matrix = _timing_matrix()
    rows: List[List] = []
    for name, times in matrix.items():
        graph = get_graph(name)
        nm = graph.n * graph.num_arcs
        row: List = [name]
        for algo in TABLE_ALGOS:
            t = times[algo]
            row.append(nm / t / 1e6 if t else None)
        rows.append(row)
    return ExperimentResult(
        exp_id="Table 3",
        title="Performance in search rate (MTEPS)",
        headers=["Graph"] + TABLE_ALGOS,
        rows=rows,
    )


def table4() -> ExperimentResult:
    """Table 4: sub-graph sizes produced by the partitioner."""
    rows: List[List] = []
    for name in bench_graph_names():
        partition = get_partition(name)
        stats = partition_stats(partition, name=name)
        top, second, third = stats.rows[0], stats.rows[1], stats.rows[2]
        rows.append(
            [
                name,
                stats.num_subgraphs,
                top.num_vertices,
                top.num_arcs,
                f"{top.vertex_fraction:.2%}",
                f"{top.arc_fraction:.2%}",
                second.num_vertices,
                second.num_arcs,
                third.num_vertices,
                third.num_arcs,
            ]
        )
    return ExperimentResult(
        exp_id="Table 4",
        title="The size of sub-graphs for various graphs",
        headers=[
            "Graph",
            "#SG",
            "top #V",
            "top #E",
            "V/G.V",
            "E/G.E",
            "2nd #V",
            "2nd #E",
            "3rd #V",
            "3rd #E",
        ],
        rows=rows,
    )


def fig6() -> ExperimentResult:
    """Figure 6: per-graph speedup of each algorithm over serial."""
    matrix = _timing_matrix()
    rows: List[List] = []
    for name, times in matrix.items():
        serial = times["serial"]
        row: List = [name]
        for algo in TABLE_ALGOS[1:]:
            t = times[algo]
            row.append(serial / t if (t and serial) else None)
        rows.append(row)
    return ExperimentResult(
        exp_id="Figure 6",
        title="Speedups relative to serial",
        headers=["Graph"] + TABLE_ALGOS[1:],
        rows=rows,
    )


def fig7() -> ExperimentResult:
    """Figure 7: breakdown of Brandes BC work into redundancy classes."""
    rows: List[List] = []
    for name in get_suite():
        rb = get_redundancy(name)
        rows.append(
            [
                name,
                f"{rb.partial_fraction:.1%}",
                f"{rb.total_fraction:.1%}",
                f"{rb.essential_fraction:.1%}",
            ]
        )
    return ExperimentResult(
        exp_id="Figure 7",
        title="Breakdown of BC computation (share of Brandes traversal work)",
        headers=["Graph", "partial redundancy", "total redundancy", "essential"],
        rows=rows,
        notes="work metric: forward-traversal arcs (see repro.metrics.redundancy)",
    )


def fig8() -> ExperimentResult:
    """Figure 8: execution-time breakdown of APGRE."""
    rows: List[List] = []
    for name, graph in get_suite().items():
        frac = phase_breakdown(graph)
        extra = frac["partition"] + frac["alpha_beta"]
        rows.append(
            [
                name,
                f"{frac['partition']:.1%}",
                f"{frac['alpha_beta']:.1%}",
                f"{frac['top_bc']:.1%}",
                f"{frac['rest_bc']:.1%}",
                f"{extra:.1%}",
            ]
        )
    return ExperimentResult(
        exp_id="Figure 8",
        title="Breakdown of execution time of APGRE",
        headers=[
            "Graph",
            "partition",
            "alpha/beta",
            "top sub-graph BC",
            "other sub-graphs BC",
            "extra (part+ab)",
        ],
        rows=rows,
    )


def _apgre_task_weights(name: str) -> List[float]:
    """Per-task work estimates for the scaling model (roots × arcs)."""
    partition = get_partition(name)
    weights: List[float] = []
    for sg in partition.subgraphs:
        for _ in range(sg.roots.size):
            weights.append(float(max(sg.num_arcs, 1)))
    return weights


def _scaling_rows(
    name: str, graph, worker_counts: List[int], algorithms: List[str]
) -> List[List]:
    """Measured time + modelled speedup per worker count."""
    weights = _apgre_task_weights(name)
    total = sum(weights) or 1.0
    base: Dict[str, float] = {}
    rows: List[List] = []
    for k in worker_counts:
        row: List = [k]
        for algo in algorithms:
            t0 = time.perf_counter()
            if algo == "APGRE":
                apgre_bc_detailed(
                    graph,
                    APGREConfig(
                        parallel="processes" if k > 1 else "serial", workers=k
                    ),
                    partition=get_partition(name),
                )
            else:
                from repro.baselines.registry import get_algorithm

                kwargs = {"workers": k} if algo != "serial" else {}
                get_algorithm(algo)(graph, **kwargs)
            elapsed = time.perf_counter() - t0
            base.setdefault(algo, elapsed)
            row.append(base[algo] / elapsed)
        model = total / lpt_makespan(weights, k)
        row.append(model)
        rows.append(row)
    return rows


def fig9() -> ExperimentResult:
    """Figure 9: parallel scaling of the algorithms (dblp analogue).

    Measured speedups come from worker sweeps on *this* host; on the
    single-core reproduction machine they are flat to degrading, so
    the final column adds the work/LPT model speedup APGRE's task
    graph supports on a real k-core machine (DESIGN.md §1).
    """
    name, graph = scaling_graph()
    algos = ["APGRE", "preds", "succs"]
    rows = _scaling_rows(name, graph, [1, 2, 4, 8, 12], algos)
    return ExperimentResult(
        exp_id="Figure 9",
        title=f"Parallel scaling on {name} (measured speedup vs 1 worker)",
        headers=["workers"] + algos + ["APGRE model"],
        rows=rows,
        notes=(
            "measured columns are worker sweeps on this host; the model "
            "column is the LPT work bound for APGRE's task graph"
        ),
    )


def fig10() -> ExperimentResult:
    """Figure 10: APGRE scaling up to 32 workers (4-socket analogue)."""
    name, graph = scaling_graph()
    rows = _scaling_rows(name, graph, [1, 2, 4, 8, 16, 32], ["APGRE"])
    return ExperimentResult(
        exp_id="Figure 10",
        title=f"Parallel scaling of APGRE on {name} up to 32 workers",
        headers=["workers", "APGRE", "APGRE model"],
        rows=rows,
        notes="see Figure 9 note",
    )


def cache_incremental() -> ExperimentResult:
    """Cache experiment: cold vs warm vs k-edge-delta APGRE runs.

    The :mod:`repro.cache` counterpart of Table 2 — how much of a
    repeat run the BCC-scoped contribution cache eliminates (see
    docs/CACHING.md; ``benchmarks/bench_cache_incremental.py`` is the
    guarded standalone version with the committed numbers).
    """
    from repro.cache import ContributionStore, apgre_bc_delta

    rows: List[List] = []
    for name in ("USA-roadBAY", "Email-Enron"):
        if name not in bench_graph_names():
            continue
        graph = get_graph(name)
        store = ContributionStore()
        config = APGREConfig(parallel="serial", cache=store)
        t0 = time.perf_counter()
        cold = apgre_bc_detailed(graph, config)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = apgre_bc_detailed(graph, config)
        t_warm = time.perf_counter() - t0
        # 4-edge delta between vertices of the largest non-top
        # sub-graph: dirties exactly one cache key (docs/CACHING.md)
        partition = graph_partition(graph, threshold=config.threshold)
        host = max(partition.subgraphs[1:], key=lambda s: s.num_vertices)
        rng = np.random.default_rng(11)
        existing = set(
            zip(
                np.repeat(
                    np.arange(graph.n), np.diff(graph.out_indptr)
                ).tolist(),
                graph.out_indices.tolist(),
            )
        )
        added: List[tuple] = []
        while len(added) < 4:
            a, b = (int(x) for x in rng.choice(host.vertices, 2, False))
            if a != b and (a, b) not in existing and (a, b) not in added:
                added.append((a, b))
        t0 = time.perf_counter()
        delta = apgre_bc_delta(
            graph, edges_added=np.asarray(added), cache=store, config=config
        )
        t_delta = time.perf_counter() - t0
        ds = delta.result.stats
        rows.append(
            [
                name,
                t_cold,
                t_warm,
                t_cold / t_warm if t_warm else None,
                t_delta,
                f"{ds.subgraphs_recomputed}/{ds.num_subgraphs}",
                warm.stats.edges_replayed,
            ]
        )
    return ExperimentResult(
        exp_id="Cache",
        title="Contribution cache: cold vs warm vs 4-edge delta",
        headers=[
            "Graph",
            "cold s",
            "warm s",
            "warm speedup",
            "delta s",
            "delta recomputed SG",
            "edges replayed",
        ],
        rows=rows,
        notes=(
            "warm reruns replay every stored contribution (0 edges "
            "traversed); the delta adds 4 edges inside one non-top "
            "sub-graph, so only that BCC recomputes"
        ),
    )


def ablation_threshold() -> ExperimentResult:
    """Ablation A1: Algorithm-1 merge-threshold sweep."""
    name, graph = scaling_graph()
    rows: List[List] = []
    for threshold in (2, 4, 8, 16, 32, 64):
        t0 = time.perf_counter()
        partition = graph_partition(graph, threshold=threshold)
        compute_alpha_beta(graph, partition)
        result = apgre_bc_detailed(graph, partition=partition)
        elapsed = time.perf_counter() - t0
        stats = partition_stats(partition)
        rows.append(
            [
                threshold,
                partition.num_subgraphs,
                f"{stats.top.vertex_fraction:.1%}",
                int(partition.boundary_art_flags.sum()),
                elapsed,
            ]
        )
    return ExperimentResult(
        exp_id="Ablation A1",
        title=f"Partition threshold sweep on {name}",
        headers=["threshold", "#SG", "top V share", "#boundary arts", "seconds"],
        rows=rows,
    )


def ablation_features() -> ExperimentResult:
    """Ablation A2: feature toggles (γ elimination, α/β method)."""
    rows: List[List] = []
    # a directed and an undirected representative
    for name in ("Email-EuAll", "Email-Enron"):
        if name not in bench_graph_names():
            continue
        graph = get_graph(name)
        variants = [
            ("APGRE (full)", APGREConfig()),
            ("no pendant elimination", APGREConfig(eliminate_pendants=False)),
            ("alpha/beta: blocked BFS", APGREConfig(alpha_beta_method="bfs")),
            ("alpha/beta: tree DP", APGREConfig(alpha_beta_method="tree")),
        ]
        for label, config in variants:
            t0 = time.perf_counter()
            apgre_bc_detailed(graph, config)
            rows.append([name, label, time.perf_counter() - t0])
        if not graph.directed:
            from repro.core.treefold import treefold_bc

            t0 = time.perf_counter()
            treefold_bc(graph)
            rows.append(
                [name, "pendant-tree contraction", time.perf_counter() - t0]
            )
        serial = time_algorithm("serial", graph, graph_name=name)
        rows.append([name, "serial Brandes", serial.seconds])
    return ExperimentResult(
        exp_id="Ablation A2",
        title="APGRE feature ablation",
        headers=["Graph", "variant", "seconds"],
        rows=rows,
    )
