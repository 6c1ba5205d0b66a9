"""The traced run: per-layer metrics from spans around public calls.

A traced solve replays the workload's solve through the public calls
of each layer, in the order ``apgre_bc_detailed`` makes them:

    solve
      decompose.partition   graph_partition
      decompose.alpha_beta  compute_alpha_beta
      core.top_bc / core.rest_bc   bc_subgraph per sub-graph (serial)
      or parallel.bc        apgre_bc_detailed(partition=prebuilt)

The run also times untraced solves, the program's own
``apgre_bc_detailed`` call, alternating with the traced ones.
``core.driver_self_s`` is what the program's driver spends outside its
layer calls (work-unit expansion, ordering, reduction into the score
vector, stats): an untraced call's wall time minus the phase timings
the same call reports, so host speed drifting between calls cancels.
On the threaded workload the driver's dispatch runs inside the timed
parallel phase and only its outer part is left over.
``trace.uncovered_share`` is ``core.driver_self_s`` as a share of the
untraced solve.  ``trace.residual_s`` is the untraced median minus the
layer self-time medians and ``core.driver_self_s``: what the account
of the untraced ``solve_s_p50`` leaves unexplained.
``trace.overhead_s`` is the traced minus the untraced median.

The remaining layers are timed around their own entry points: the
serial per-sub-graph kernel pass, the parallel backend against its
single-thread baseline, journal records, compression and sharding of
the top sub-graph, in-process incremental deltas with a timed
contribution store, and one served session.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from common import median
from oracle import tolerance, vector_ok
from serving import run_session, start_daemon
from tracing import Tracer
from workloads import GraphVersions


# Largest shard of the traced sharding pass.  The default
# (``APGREConfig().shard_max_size``, 2048) is above the top sub-graphs
# of these workloads (~1.2k vertices on road, ~0.9k on serve), which
# would leave nothing to split.
SHARD_MAX_SIZE = 512


def _timed_store(tracer: Tracer, keys: List[str], **kwargs):
    """A ``ContributionStore`` whose ``put`` calls are spans; keys are kept."""
    from repro.cache.store import ContributionStore

    class TimedStore(ContributionStore):
        def put(self, key, scores, edges):
            keys.append(key)
            with tracer.span("cache.put"):
                return super().put(key, scores, edges)

    return TimedStore(**kwargs)


def serial_bc(tracer: Tracer, graph, partition, counter, locals_out=None) -> np.ndarray:
    """The batched kernel over every sub-graph, one span per call."""
    from repro.core.bc_subgraph import bc_subgraph

    bc = np.zeros(graph.n)
    for sg in partition.subgraphs:
        before = counter.edges
        with tracer.span("core.top_bc" if sg.index == 0 else "core.rest_bc"):
            local = bc_subgraph(sg, batch_size="auto", counter=counter)
        bc[sg.vertices] += local
        if locals_out is not None:
            locals_out.append((sg.index, local, counter.edges - before))
    return bc


def traced_solve(tracer: Tracer, ctx):
    from repro.baselines.common import WorkCounter
    from repro.core.apgre import apgre_bc_detailed
    from repro.decompose import graph_partition
    from repro.decompose.alphabeta import compute_alpha_beta

    wl, graph = ctx.workload, ctx.graph
    config = wl.config()
    counter = WorkCounter()
    with tracer.span("solve") as root:
        with tracer.span("decompose.partition"):
            partition = graph_partition(graph, threshold=config.threshold)
        with tracer.span("decompose.alpha_beta"):
            ab = compute_alpha_beta(graph, partition, method=config.alpha_beta_method)
        if wl.backend is None:
            scores = serial_bc(tracer, graph, partition, counter)
        else:
            with tracer.span("parallel.bc"):
                scores = apgre_bc_detailed(graph, config, partition=partition).scores
    ctx.record(vector_ok(scores, ctx.ref), "traced solve disagrees with Brandes")
    return root, partition, ab


def _solve_account(tracer: Tracer, roots) -> Dict[str, List[float]]:
    """Per traced solve: self time of each layer under the solve span."""
    acct: Dict[str, List[float]] = {}
    for root in roots:
        per: Dict[str, float] = {}
        for child in tracer.children(root):
            key = {"core.top_bc": "core.top_bc_s", "core.rest_bc": "core.rest_bc_s",
                   "parallel.bc": "parallel.bc_s"}.get(child.name, child.name + "_s")
            per[key] = per.get(key, 0.0) + tracer.self_time(child)
        for key, value in per.items():
            acct.setdefault(key, []).append(value)
    return acct


def traced_run(ctx) -> Tuple[Dict[str, float], Dict[str, int]]:
    from repro.baselines.common import WorkCounter
    from repro.cache.incremental import apgre_bc_delta
    from repro.compress import compression_plan
    from repro.core.apgre import apgre_bc_detailed
    from repro.core.bc_subgraph import bc_subgraph
    from repro.core.config import APGREConfig
    from repro.graph.kernels import select_kernel
    from repro.journal import RunJournal, run_fingerprint
    from repro.shard.kernel import bc_subgraph_sharded
    from repro.shard.plan import shard_plan

    tr = Tracer()
    wl, smoke = ctx.workload, ctx.smoke
    k = 2 if smoke else 3
    ctx.prepare()
    graph, config = ctx.graph, wl.config()
    m: Dict[str, float] = {}
    n: Dict[str, int] = {}

    def put(name: str, values: List[float], scale: float = 1.0) -> None:
        m[name], n[name] = median(values) * scale, len(values)

    # -- set-up: a fresh interpreter importing the CLI, loading the file
    probes = ctx.setup_probes(k)
    put("cli.import_s", [p["import_s"] for p in probes])
    put("io.load_s", [p["load_s"] for p in probes])

    # -- the solve, untraced and traced ----------------------------------
    untraced: List[float] = []
    driver: List[float] = []
    traced = []
    # the two kinds alternate, so a slow spell on the host hits both;
    # the first of each warms up
    for i in range(k + 1):
        t0 = time.perf_counter()
        result = apgre_bc_detailed(graph, config)
        elapsed = time.perf_counter() - t0
        ok = ctx.record(vector_ok(result.scores, ctx.ref),
                        "in-process solve disagrees with Brandes")
        tsolve = traced_solve(tr, ctx)
        if i and ok:
            untraced.append(elapsed)
            driver.append(elapsed - result.stats.timings.total)
        if i:
            traced.append(tsolve)
    roots = [root for root, _, _ in traced]
    _, partition, ab = traced[-1]
    acct = _solve_account(tr, roots)
    for key, values in acct.items():
        put(key, values)
    put("trace.solve_s_p50", [r.duration for r in roots])
    put("trace.untraced_solve_s_p50", untraced)
    put("core.driver_self_s", driver)
    untraced_p50 = m["trace.untraced_solve_s_p50"]
    m["trace.overhead_s"] = m["trace.solve_s_p50"] - untraced_p50
    m["trace.residual_s"] = untraced_p50 - m["core.driver_self_s"] - sum(
        median(values) for values in acct.values())
    m["trace.uncovered_share"] = m["core.driver_self_s"] / untraced_p50
    top = partition.top
    m["decompose.subgraphs"] = partition.num_subgraphs
    m["decompose.top_vertex_share"] = top.num_vertices / graph.n
    m["decompose.alpha_beta_pairs"] = ab.pairs

    # -- core and kernels: the serial per-sub-graph pass -------------------
    counter = WorkCounter()
    contributions: List = []
    with tr.span("core.serial_pass") as sp:
        serial_bc(tr, graph, partition, counter, contributions)
    top_spans = [s for s in tr.children(sp) if s.name == "core.top_bc"]
    rest = sum(s.duration for s in tr.children(sp) if s.name == "core.rest_bc")
    top_local = contributions[0][1]
    if wl.backend is not None:  # serial solves already timed these spans
        m["core.top_bc_s"], m["core.rest_bc_s"] = top_spans[0].duration, rest
        n["core.top_bc_s"] = n["core.rest_bc_s"] = 1
    m["core.edges_traversed"] = counter.edges
    m["core.mteps"] = counter.edges / (m["core.top_bc_s"] + m["core.rest_bc_s"]) / 1e6
    m["kernels.edges_pulled"] = counter.pulled
    m["kernels.pull_subgraphs"] = sum(
        select_kernel(sg.graph) == "pull" for sg in partition.subgraphs)

    # -- parallel: threads x2 against the single-thread baseline -----------
    threads = APGREConfig(batch_size="auto", backend="threads", workers=2)
    serial = APGREConfig(batch_size="auto")
    for name, cfg in (("parallel.bc", threads), ("parallel.serial_bc", serial)):
        for _ in range(k - 1):
            with tr.span(name):
                scores = apgre_bc_detailed(graph, cfg, partition=partition).scores
            ctx.record(vector_ok(scores, ctx.ref), f"{name} disagrees with Brandes")
    put("parallel.bc_s", [s.duration for s in tr.named("parallel.bc") if s.parent is None])
    put("parallel.serial_bc_s", [s.duration for s in tr.named("parallel.serial_bc")])
    m["parallel.speedup"] = m["parallel.serial_bc_s"] / m["parallel.bc_s"]
    m["parallel.efficiency"] = m["parallel.speedup"] / threads.workers

    # -- journal: one durable record per sub-graph contribution ------------
    jdir = ctx.workdir / "journal"
    journal = RunJournal(jdir)
    journal.begin(run_fingerprint(graph, config))
    for index, local, edges in contributions:
        with tr.span("journal.record"):
            ok = journal.record_contribution(index, local, edges)
        ctx.record(ok, f"journal record {index} failed")
    journal.finalize("complete")
    put("journal.record_ms", [s.duration for s in tr.named("journal.record")], 1e3)
    m["journal.bytes"] = sum(f.stat().st_size for f in jdir.rglob("*") if f.is_file())

    # -- compress and shard on the top sub-graph ---------------------------
    def check_top(local, what: str) -> None:
        ok = local.shape == top_local.shape and bool(
            np.abs(local - top_local).max() <= tolerance(top_local))
        ctx.record(ok, f"{what} top sub-graph scores disagree with the batched kernel")

    with tr.span("compress.plan"):
        cplan = compression_plan(top)
    with tr.span("compress.bc"):
        check_top(bc_subgraph(top, batch_size="auto", compress=True), "compressed")
    m["compress.plan_s"] = tr.named("compress.plan")[0].duration
    m["compress.bc_s"] = tr.named("compress.bc")[0].duration
    m["compress.ratio"] = cplan.n / cplan.n_core

    shard_counter = WorkCounter()
    with tr.span("shard.plan"):
        splan = shard_plan(top, max_size=SHARD_MAX_SIZE)
    with tr.span("shard.bc"):
        # an unsplittable top sub-graph runs the plain kernel, as a
        # shard=True solve would
        local = (bc_subgraph_sharded(top, splan, counter=shard_counter) if splan is not None
                 else bc_subgraph(top, batch_size="auto", counter=shard_counter))
    check_top(local, "sharded")
    m["shard.plan_s"] = tr.named("shard.plan")[0].duration
    m["shard.bc_s"] = tr.named("shard.bc")[0].duration
    m["shard.shards"] = splan.k if splan is not None else 1
    m["shard.edges_traversed"] = shard_counter.edges

    # -- cache: in-process incremental deltas on a timed store -------------
    keys: List[str] = []
    store = _timed_store(tr, keys, cache_dir=ctx.workdir / "inproc-store")
    cached = wl.config(cache=store)
    apgre_bc_detailed(graph, cached)
    current = graph
    replayed = recomputed = edges_replayed = edges_traversed = 0
    for d in next(ctx.schedule(partition).cycles()):
        with tr.span("cache.delta"):
            dr = apgre_bc_delta(current, list(d.add) or None, list(d.remove) or None,
                                cache=store, config=cached)
        current = dr.graph
        ctx.record(vector_ok(dr.scores, ctx.reference(current)),
                   f"in-process {d.kind} delta disagrees with the reference")
        st = dr.result.stats
        replayed += st.subgraphs_replayed
        recomputed += st.subgraphs_recomputed
        edges_replayed += st.edges_replayed
        edges_traversed += st.edges_traversed
    # gets served by the disk layer: empty the memory tier, read every entry back
    store.clear()
    for key in dict.fromkeys(keys):
        disk_hits = store.counters.disk_hits
        with tr.span("cache.get"):
            entry = store.get(key)
        ctx.record(entry is not None and store.counters.disk_hits == disk_hits + 1,
                   f"contribution {key} not read back from disk")
    put("cache.delta_s", [s.duration for s in tr.named("cache.delta")])
    m["cache.replay_ratio"] = replayed / max(replayed + recomputed, 1)
    m["cache.edges_replayed_share"] = edges_replayed / max(edges_replayed + edges_traversed, 1)
    put("cache.get_ms", [s.duration for s in tr.named("cache.get")], 1e3)
    put("cache.put_ms", [s.duration for s in tr.named("cache.put")], 1e3)

    # -- serve: two writer cycles against a daemon, with a reader ---------
    daemon, client, _, first = start_daemon(ctx.root, ctx.workdir, "d0", ctx.graph_file,
                                            wl.cli_flags())
    versions = GraphVersions(graph)
    try:
        ctx.check_first(first)
        log = run_session(daemon, client, ctx.schedule(partition), versions, ctx.seed,
                          graph.n, wl.overlap, reads_per_turn=40 if smoke else 400)
    finally:
        ctx.record(daemon.stop(), "daemon did not drain with exit 0 on SIGTERM")
    ctx.account_session(log, versions)
    put("serve.overhead_ms", [rtt - srv for rtt, srv in zip(log.delta_s, log.delta_server_s)],
        1e3)
    lru = log.stats.get("score_lru", {})
    m["serve.lru_hit_ratio"] = lru.get("hits", 0) / max(lru.get("hits", 0) + lru.get("misses", 0), 1)
    m["serve.daemon_peak_rss_mb"] = log.peak_rss_mb
    m["serve.read_ms_p50"] = float(np.median(log.read_ms))
    m["serve.read_ms_p99"] = float(np.percentile(log.read_ms, 99))
    m["serve.reads_per_s"] = len(log.read_ms) / log.read_window_s
    n["serve.read_ms_p50"] = n["serve.read_ms_p99"] = n["serve.reads_per_s"] = len(log.read_ms)
    m["serve.delta_s_p50"] = float(np.median(log.delta_s))
    m["serve.deltas_per_s"] = len(log.delta_s) / log.write_window_s
    n["serve.delta_s_p50"] = n["serve.deltas_per_s"] = len(log.delta_s)

    # -- cold CLI: what the process adds around import, load and solve -----
    colds = [r for r in (ctx.cold_run() for _ in range(2)) if r is not None]
    cold = median([r.wall_s for r in colds])
    m["cli.overhead_s"] = cold - (m["cli.import_s"] + m["io.load_s"]
                                  + m["trace.untraced_solve_s_p50"])
    return m, n

