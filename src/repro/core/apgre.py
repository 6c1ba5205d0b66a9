"""The APGRE driver (paper Figure 5).

Three steps:

1. decompose the graph by articulation points (Algorithm 1 —
   :func:`repro.decompose.partition.graph_partition`);
2. count ``α_SGi(a)``/``β_SGi(a)`` for every boundary articulation
   point (:func:`repro.decompose.alphabeta.compute_alpha_beta`);
3. compute each sub-graph's scores with the four-dependency kernel
   (:func:`repro.core.bc_subgraph.bc_subgraph`) and merge:
   ``BC(v) = Σ_SGi BC_SGi(v)`` (equation 8 — articulation points sum
   their per-sub-graph shares).

Step 3 carries the coarse-grained parallelism: sub-graphs are
independent ("coarse-grained asynchronous parallelism among
sub-graphs"), dispatched largest-first over a supervised fork-based
process pool (``parallel="processes"`` —
:func:`repro.parallel.supervisor.supervised_map`, with per-task
timeouts, crash detection, bounded retry and serial degradation) or a
thread pool (``parallel="threads"``).  A processes run attaches its
supervision report to ``BCResult.health``; the degradation ladder
bottoms out in full-serial APGRE and, past that, the plain Brandes
baseline (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.common import WorkCounter
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.core.result import APGREStats, BCResult, PhaseTimings
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import Partition, graph_partition
from repro.errors import ExecutionError, ReproError
from repro.graph.csr import CSRGraph
from repro.parallel.batched_pool import merge_examined
from repro.parallel.pool import get_worker_state, thread_map
from repro.parallel.scheduler import lpt_order, task_cost
from repro.parallel.supervisor import (
    RunHealth,
    SupervisorConfig,
    supervised_map,
)
from repro.types import SCORE_DTYPE

__all__ = ["apgre_bc", "apgre_bc_detailed"]

# journal slot encoding for shard units: sub-graph ``index`` stays the
# slot of a whole-sub-graph unit (back-compatible with pre-shard
# journals), shard ``s`` of sub-graph ``i`` lives at
# ``(i + 1) * _SLOT_BASE + s`` — disjoint ranges, deterministic.
_SLOT_BASE = 1_000_000


def _counter_triple(tally: WorkCounter) -> Tuple[int, int, int]:
    """One task's ``(edges, pulled, switches)`` engine commit row."""
    return (tally.edges, tally.pulled, tally.switches)


def _fold_tally(counter: WorkCounter, tally: WorkCounter) -> None:
    """Fold a task-local tally's full split into the run counter."""
    counter.add(tally.edges)
    if tally.pulled:
        counter.add_pulled(tally.pulled)
    if tally.switches:
        counter.add_switch(tally.switches)


def _plan_of(sg, config: APGREConfig):
    """The sub-graph's shard plan, or ``None`` when it runs whole."""
    if not config.shard:
        return None
    from repro.shard import shard_plan

    return shard_plan(sg, max_size=config.shard_max_size)


def _expand_units(subgraphs, config: APGREConfig) -> List[Tuple[int, int]]:
    """The run's work units: ``(subgraph_index, shard)``.

    ``shard == -1`` is a whole-sub-graph unit (the only kind when
    sharding is off or the plan declined to split); a sharded
    sub-graph contributes one unit per shard task instead, each a
    first-class schedule/cache/journal citizen.
    """
    units: List[Tuple[int, int]] = []
    for sg in subgraphs:
        plan = _plan_of(sg, config)
        if plan is None:
            units.append((sg.index, -1))
        else:
            units.extend((sg.index, s) for s in range(plan.k))
    return units


def _unit_num_roots(sg, shard: int, config: APGREConfig) -> int:
    if config.eliminate_pendants:
        roots = sg.roots
    else:
        roots = np.arange(sg.num_vertices, dtype=sg.roots.dtype)
    if shard < 0:
        return int(roots.size)
    return int(_plan_of(sg, config).home_roots(roots, shard).size)


def _unit_scores(
    sg, shard: int, config: APGREConfig, counter=None, lo=None, hi=None
) -> np.ndarray:
    """One unit's full-length local score vector (optionally root-sliced).

    Whole units route through :func:`bc_subgraph` (honouring
    ``batch_size``/``compress``); shard units run the shard kernel —
    never root-sliced and never compressed (the two reductions do not
    compose; docs/SHARDING.md).
    """
    if shard < 0:
        roots = None
        if lo is not None:
            if config.eliminate_pendants:
                all_roots = sg.roots
            else:
                all_roots = np.arange(sg.num_vertices, dtype=sg.roots.dtype)
            roots = all_roots[lo:hi]
        return bc_subgraph(
            sg,
            eliminate_pendants=config.eliminate_pendants,
            counter=counter,
            roots=roots,
            batch_size=config.batch_size,
            compress=config.compress,
            kernel=config.kernel,
        )
    from repro.shard import shard_task_scores

    return shard_task_scores(
        sg,
        _plan_of(sg, config),
        shard,
        eliminate_pendants=config.eliminate_pendants,
        counter=counter,
    )


def _unit_weight(sg, shard: int, config: APGREConfig) -> float:
    """LPT weight of a unit under the edges × sqrt(roots) cost model."""
    n_roots = _unit_num_roots(sg, shard, config)
    if shard < 0:
        return task_cost(sg.num_arcs, n_roots)
    h = _plan_of(sg, config).shard_graphs[shard]
    return task_cost(h.num_arcs, n_roots)


def _unit_key(sg, shard: int, config: APGREConfig) -> str:
    """Content fingerprint of one unit's local contribution vector."""
    if shard < 0:
        from repro.cache.fingerprint import subgraph_key

        return subgraph_key(
            sg,
            eliminate_pendants=config.eliminate_pendants,
            compress=config.compress,
        )
    from repro.shard import shard_key

    return shard_key(
        sg,
        shard,
        max_size=config.shard_max_size,
        eliminate_pendants=config.eliminate_pendants,
    )


def _subgraph_task(task: Tuple[int, int, int]) -> Tuple[int, np.ndarray]:
    """Worker body: one (unit, root-slice) chunk's local scores."""
    upos, lo, hi = task
    state = get_worker_state()
    partition: Partition = state["partition"]
    eliminate: bool = state["eliminate_pendants"]
    index, shard = state["units"][upos]
    sg = partition.subgraphs[index]
    if shard >= 0:
        from repro.shard import shard_plan, shard_task_scores

        # plans are memoized on the Subgraph — fork/thread workers
        # reuse the ones the parent built for the stats pass
        plan = shard_plan(sg, max_size=state["shard_max_size"])
        return index, shard_task_scores(
            sg, plan, shard, eliminate_pendants=eliminate
        )
    if eliminate:
        all_roots = sg.roots
    else:
        all_roots = np.arange(sg.num_vertices, dtype=sg.roots.dtype)
    return index, bc_subgraph(
        sg,
        eliminate_pendants=eliminate,
        roots=all_roots[lo:hi],
        batch_size=state.get("batch_size"),
        compress=state.get("compress", False),
        kernel=state.get("kernel"),
    )


def _make_tasks(
    subgraphs,
    units: List[Tuple[int, int]],
    config: APGREConfig,
) -> Tuple[List[Tuple[int, int, int]], List[float]]:
    """Split units into (unit_pos, root_lo, root_hi) chunks + weights.

    Large whole-sub-graph units are cut into ~``2 × workers`` root
    slices so the dominant top sub-graph does not serialise the pool
    (the paper gets the same effect from its fine-grained level); small
    units stay whole, and shard units are always one task — the shard
    decomposition *is* the fine cut.  Tasks are returned
    largest-estimated-work first (LPT) under the
    :func:`~repro.parallel.scheduler.task_cost` model.  With an
    integer ``batch_size``, chunk boundaries are aligned to a multiple
    of it so workers run full batches (``"auto"`` resolves per
    sub-graph inside the worker and is left unaligned).
    """
    eliminate = config.eliminate_pendants
    batch_size = config.batch_size
    tasks: List[Tuple[int, int, int]] = []
    weights: List[float] = []
    total_roots = sum(
        _unit_num_roots(subgraphs[i], s, config) for i, s in units
    )
    chunk_target = max(total_roots // max(2 * config.workers, 1), 1)
    if isinstance(batch_size, int) and batch_size > 1:
        chunk_target = max(
            (chunk_target + batch_size - 1) // batch_size * batch_size,
            batch_size,
        )
    for upos, (index, shard) in enumerate(units):
        sg = subgraphs[index]
        n_roots = _unit_num_roots(sg, shard, config)
        if shard >= 0:
            # zero-root shards still get a task so their (all-zero)
            # vector reaches the cache/journal commit path once
            tasks.append((upos, 0, n_roots))
            h = _plan_of(sg, config).shard_graphs[shard]
            weights.append(task_cost(h.num_arcs, n_roots))
            continue
        if n_roots == 0:
            continue
        step = max(min(chunk_target, n_roots), 1)
        for lo in range(0, n_roots, step):
            hi = min(lo + step, n_roots)
            tasks.append((upos, lo, hi))
            weights.append(task_cost(sg.num_arcs, hi - lo))
    order = lpt_order(weights)
    return [tasks[i] for i in order], [weights[i] for i in order]


def apgre_bc_detailed(
    graph: CSRGraph,
    config: Optional[APGREConfig] = None,
    *,
    partition: Optional[Partition] = None,
) -> BCResult:
    """Run APGRE and return scores plus phase timings and counters.

    Parameters
    ----------
    graph:
        Directed or undirected, connected or not.
    config:
        Run options; defaults to :class:`APGREConfig()`.
    partition:
        A pre-computed partition (with α/β already filled) to reuse
        across runs — the scaling benchmarks pass this so worker-count
        sweeps time only the BC phase they vary.
    """
    config = config or APGREConfig()
    stats = APGREStats()
    timings = stats.timings
    counter = WorkCounter()

    if partition is None:
        t0 = time.perf_counter()
        partition = graph_partition(graph, threshold=config.threshold)
        timings.partition = time.perf_counter() - t0

        t0 = time.perf_counter()
        ab = compute_alpha_beta(
            graph, partition, method=config.alpha_beta_method
        )
        timings.alpha_beta = time.perf_counter() - t0
        stats.alpha_beta_pairs = ab.pairs
        stats.alpha_beta_method = ab.method
        stats.alpha_beta_arcs = ab.arcs_examined

    subgraphs = partition.subgraphs
    stats.num_subgraphs = len(subgraphs)
    stats.num_articulation_points = int(partition.articulation_flags.sum())
    stats.num_boundary_arts = int(partition.boundary_art_flags.sum())
    if config.eliminate_pendants:
        stats.num_removed_pendants = sum(sg.removed.size for sg in subgraphs)
        stats.num_sources = sum(sg.roots.size for sg in subgraphs)
    else:
        stats.num_sources = sum(sg.num_vertices for sg in subgraphs)

    if config.shard:
        # Build (and memoize) every shard plan up front: fork-based
        # workers inherit finished plans, and the stats describe the
        # decomposition whichever execution path the scores take.
        # Plan-construction work is tallied out of TEPS.
        plans = [(sg, _plan_of(sg, config)) for sg in subgraphs]
        built = [(sg, p) for sg, p in plans if p is not None]
        stats.shards_created = sum(p.k for _, p in built)
        stats.separator_vertices = sum(p.num_separator for _, p in built)
        stats.edges_correction = sum(p.edges_correction for _, p in built)
        stats.largest_shard_ratio = max(
            (p.largest_shard / sg.num_vertices for sg, p in built),
            default=1.0,
        )

    if config.compress:
        # Build (and memoize) every plan up front: fork-based workers
        # then inherit the finished plans instead of rebuilding them,
        # and the stats describe the run regardless of which execution
        # path the scores take.  These tallies quantify work *avoided*
        # and are never folded into edges_traversed/TEPS.
        from repro.compress import compression_plan

        plans = [
            compression_plan(sg, eliminate_pendants=config.eliminate_pendants)
            for sg in subgraphs
            # sharded sub-graphs skip the compression ladder entirely
            if _plan_of(sg, config) is None
        ]
        stats.vertices_merged = sum(p.vertices_merged for p in plans)
        stats.chains_contracted = sum(p.chain_interiors for p in plans)
        stats.vertices_peeled = sum(p.vertices_peeled for p in plans)
        total_n = sum(p.n for p in plans)
        total_core = sum(p.n_core for p in plans)
        stats.compression_ratio = (
            total_n / total_core if total_core else 1.0
        )

    bc = np.zeros(graph.n, dtype=SCORE_DTYPE)
    health: Optional[RunHealth] = None

    store = None
    if config.cache is not None or config.cache_dir is not None:
        from repro.cache.store import resolve_store

        store = resolve_store(config.cache, config.cache_dir)
    if config.journal_dir is not None:
        t0 = time.perf_counter()
        health = _journaled_pass(
            graph, bc, partition, config, store, counter, stats
        )
        timings.rest_bc = time.perf_counter() - t0
    elif store is not None:
        t0 = time.perf_counter()
        health = _cached_pass(
            graph, bc, partition, config, store, counter, stats
        )
        timings.rest_bc = time.perf_counter() - t0
    elif (
        config.parallel == "serial" and config.backend is None
    ) or config.workers <= 1:
        _serial_pass(bc, subgraphs, config, counter, timings)
    else:
        t0 = time.perf_counter()
        units = _expand_units(subgraphs, config)
        tasks, weights = _make_tasks(subgraphs, units, config)
        state = {
            "partition": partition,
            "units": units,
            "shard_max_size": config.shard_max_size,
            "eliminate_pendants": config.eliminate_pendants,
            "batch_size": config.batch_size,
            "compress": config.compress,
            "kernel": config.kernel,
        }
        if config.backend is not None:
            from repro.parallel.backends import resolve_backend

            health = RunHealth()
            _batched_pool_pass(
                graph, bc, tasks, weights, subgraphs, units, config,
                counter, timings, health,
                contributions=resolve_backend(config.backend)
                .contributions,
            )
        elif config.parallel == "processes" and config.parallel_batched:
            health = RunHealth()
            _batched_pool_pass(
                graph, bc, tasks, weights, subgraphs, units, config,
                counter, timings, health
            )
        elif config.parallel == "processes":
            health = RunHealth()
            results = _supervised_pass(
                graph, bc, tasks, subgraphs, state, config, counter,
                timings, health
            )
        else:  # threads
            from repro.parallel import pool as _pool

            _pool._install_state(state)
            try:
                results = thread_map(
                    _subgraph_task, tasks, workers=config.workers
                )
            finally:
                _pool._STATE.clear()
            for idx, local in results:
                bc[subgraphs[idx].vertices] += local
        timings.rest_bc = time.perf_counter() - t0

    stats.edges_traversed = counter.edges
    stats.edges_pulled = counter.pulled
    stats.kernel_switches = counter.switches
    return BCResult(scores=bc, stats=stats, health=health)


def _serial_pass(
    bc: np.ndarray, subgraphs, config: APGREConfig, counter, timings
) -> None:
    """The serial BC phase (also the full-serial fallback rung)."""
    units = _expand_units(subgraphs, config)
    order = lpt_order(
        [_unit_weight(subgraphs[i], s, config) for i, s in units]
    )
    for pos in order:
        index, shard = units[pos]
        sg = subgraphs[index]
        t0 = time.perf_counter()
        local = _unit_scores(sg, shard, config, counter)
        elapsed = time.perf_counter() - t0
        if index == 0:
            timings.top_bc += elapsed
        else:
            timings.rest_bc += elapsed
        bc[sg.vertices] += local


def _supervised_pass(
    graph: CSRGraph,
    bc: np.ndarray,
    tasks,
    subgraphs,
    state: dict,
    config: APGREConfig,
    counter,
    timings,
    health: RunHealth,
) -> list:
    """Process-parallel BC phase behind the full degradation ladder.

    Rungs: supervised pool (with its internal per-task retry and
    serial re-run rungs) → full-serial APGRE → plain Brandes.  The
    lower rungs only engage when ``config.fallback`` is set; otherwise
    the supervisor's :class:`~repro.errors.ExecutionError` propagates.
    """
    supervisor = SupervisorConfig(
        timeout=config.timeout,
        max_retries=config.max_retries,
        fallback=config.fallback,
    )
    try:
        results = supervised_map(
            _subgraph_task,
            tasks,
            workers=config.workers,
            state=state,
            config=supervisor,
            health=health,
        )
    except ExecutionError:
        if not config.fallback:
            raise
        health.fallback_path = "serial"
        try:
            bc[:] = 0.0
            _serial_pass(bc, subgraphs, config, counter, timings)
            return []
        except ReproError:
            # last rung: the plain Brandes baseline needs nothing from
            # the decomposition machinery that just failed
            from repro.baselines.brandes import brandes_bc

            health.fallback_path = "brandes"
            bc[:] = brandes_bc(graph)
            return []
    for idx, local in results:
        bc[subgraphs[idx].vertices] += local
    return results


def _batched_pool_pass(
    graph: CSRGraph,
    bc: np.ndarray,
    tasks,
    weights,
    subgraphs,
    units,
    config: APGREConfig,
    counter,
    timings,
    health: RunHealth,
    contributions=None,
) -> None:
    """Batched-engine BC phase behind the degradation ladder.

    Same degradation ladder as :func:`_supervised_pass`, but root-slice
    tasks run on a batched execution engine — the persistent
    shared-memory process pool by default, or whatever engine
    ``contributions`` names (the ``backend=`` dispatch passes
    :attr:`~repro.parallel.backends.ExecutionBackend.contributions`
    here, e.g. the in-process worker threads of
    :mod:`repro.parallel.threaded`).  Either way workers accumulate
    batched deltas into score rows instead of pickling an ``(n,)``
    vector per task — and, unlike the pickling pool, the per-task edge
    tallies come back exactly, so ``stats.edges_traversed`` aggregates
    across workers just as a serial run would count it.
    """
    from repro.core.batched_subgraph import bc_subgraph_batched

    if contributions is None:
        from repro.parallel.batched_pool import _pooled_contributions

        contributions = _pooled_contributions

    supervisor = SupervisorConfig(
        timeout=config.timeout,
        max_retries=config.max_retries,
        fallback=config.fallback,
    )

    def compute(task_id: int):
        upos, lo, hi = tasks[task_id]
        index, shard = units[upos]
        sg = subgraphs[index]
        local_counter = WorkCounter()
        if shard >= 0:
            local = _unit_scores(sg, shard, config, local_counter)
            return sg.vertices, local, _counter_triple(local_counter)
        if config.eliminate_pendants:
            all_roots = sg.roots
        else:
            all_roots = np.arange(sg.num_vertices, dtype=sg.roots.dtype)
        local = bc_subgraph_batched(
            sg,
            eliminate_pendants=config.eliminate_pendants,
            counter=local_counter,
            roots=all_roots[lo:hi],
            batch_size=config.batch_size or "auto",
            workers=config.workers,
            compress=config.compress,
            kernel=config.kernel,
        )
        return sg.vertices, local, _counter_triple(local_counter)

    try:
        total, edge_total, _ = contributions(
            compute,
            weights,
            n=graph.n,
            workers=config.workers,
            steal=config.steal,
            config=supervisor,
            health=health,
        )
    except ExecutionError:
        if not config.fallback:
            raise
        health.fallback_path = "serial"
        try:
            bc[:] = 0.0
            _serial_pass(bc, subgraphs, config, counter, timings)
            return
        except ReproError:
            from repro.baselines.brandes import brandes_bc

            health.fallback_path = "brandes"
            bc[:] = brandes_bc(graph)
            return
    bc += total
    merge_examined(counter, edge_total)


def _cached_pass(
    graph: CSRGraph,
    bc: np.ndarray,
    partition: Partition,
    config: APGREConfig,
    store,
    counter,
    stats: APGREStats,
) -> Optional[RunHealth]:
    """Cache-aware BC phase: replay hits, recompute and store misses.

    Every work unit — a whole sub-graph, or one shard task of a
    sharded sub-graph — is keyed by its content fingerprint (local
    edges + incoming α/β/γ summaries —
    :mod:`repro.cache.fingerprint`; shard units add the shard id and
    threshold under their own domain —
    :mod:`repro.shard.fingerprint`).  Hits merge their stored local
    vectors and report their stored tallies as
    ``stats.edges_replayed``; misses are recomputed — fanned out over
    the execution backend named by ``config.backend`` when one is set,
    else the shared-memory batched pool for ``parallel="processes"``,
    a thread pool for ``"threads"``, serially otherwise — and their
    freshly computed vectors and *exact* tallies are stored.  Store
    writes happen only in the parent, after the pool's poisoned-row
    recovery (or the thread run's tree reduction), so a worker killed
    mid-recompute can never commit a poisoned cache entry.
    """
    subgraphs = partition.subgraphs
    units = _expand_units(subgraphs, config)
    keys = [_unit_key(subgraphs[i], s, config) for i, s in units]
    misses: List[int] = []
    for upos, (index, shard) in enumerate(units):
        sg = subgraphs[index]
        entry = store.get(keys[upos])
        if entry is not None and entry.scores.size == sg.num_vertices:
            bc[sg.vertices] += entry.scores
            stats.edges_replayed += entry.edges
            stats.subgraphs_replayed += 1
        else:
            misses.append(upos)
    stats.subgraphs_recomputed = len(misses)
    if not misses:
        return None

    def commit(upos: int, local: np.ndarray, edges: int) -> None:
        store.put(keys[upos], local, edges)

    return _ladder_recompute(
        graph, bc, subgraphs, units, misses, config, counter, stats,
        commit,
    )


def _ladder_recompute(
    graph: CSRGraph,
    bc: np.ndarray,
    subgraphs,
    units,
    misses,
    config: APGREConfig,
    counter,
    stats: APGREStats,
    commit,
    health: Optional[RunHealth] = None,
) -> Optional[RunHealth]:
    """Recompute missed units whole-unit-at-a-time, behind the ladder.

    Shared by the cached and journaled passes: each completed unit's
    full local vector and exact edge tally reach the
    ``commit(unit_pos, local, edges)`` callback *parent-side only*
    (for the engine paths, after the pool's poisoned-slot recovery or
    the thread run's tree reduction), which persists them to the store
    and/or the run journal — a worker thread never touches the store
    or the journal.  ``misses`` indexes ``units``.  Rungs mirror
    :func:`_supervised_pass`: engine → serial → Brandes (the Brandes
    rung wipes the replay/resume bookkeeping, since the scores no
    longer decompose per unit).
    """
    contributions = None
    if config.backend is not None and config.workers > 1:
        from repro.parallel.backends import resolve_backend

        contributions = resolve_backend(config.backend).contributions
    if contributions is not None or (
        config.parallel == "processes" and config.workers > 1
    ):
        if health is None:
            health = RunHealth()
        try:
            _pool_recompute(
                bc, subgraphs, units, misses, config, counter, health,
                commit, contributions=contributions,
            )
            return health
        except ExecutionError:
            if not config.fallback:
                raise
            health.fallback_path = "serial"
            try:
                _serial_recompute(
                    bc, subgraphs, units, misses, config, counter, commit
                )
            except ReproError:
                from repro.baselines.brandes import brandes_bc

                health.fallback_path = "brandes"
                bc[:] = brandes_bc(graph)
                # replay bookkeeping no longer describes the scores
                stats.edges_replayed = 0
                stats.subgraphs_replayed = 0
                stats.edges_resumed = 0
                stats.subgraphs_resumed = 0
            return health
    if config.parallel == "threads" and config.workers > 1:
        _thread_recompute(
            bc, subgraphs, units, misses, config, counter, commit
        )
        return health
    _serial_recompute(bc, subgraphs, units, misses, config, counter, commit)
    return health


def _serial_recompute(
    bc, subgraphs, units, misses, config: APGREConfig, counter, commit
) -> None:
    """Serial miss loop (also the cached/journaled fallback rung)."""
    costs = [
        _unit_weight(subgraphs[units[u][0]], units[u][1], config)
        for u in misses
    ]
    for idx in lpt_order(costs):
        upos = misses[idx]
        index, shard = units[upos]
        sg = subgraphs[index]
        tally = WorkCounter()
        local = _unit_scores(sg, shard, config, tally)
        # committed replay tallies are direction-blind totals, so a
        # later replay reports the same examined count whatever kernel
        # recomputed the entry
        commit(upos, local, tally.examined)
        bc[sg.vertices] += local
        _fold_tally(counter, tally)


def _thread_recompute(
    bc, subgraphs, units, misses, config: APGREConfig, counter, commit
) -> None:
    """Thread-pool miss recomputation (one whole unit per task).

    Commits happen on the caller's thread as results stream back in
    completion order, so the store/journal writers never race.
    """
    costs = [
        _unit_weight(subgraphs[units[u][0]], units[u][1], config)
        for u in misses
    ]
    miss_order = [misses[i] for i in lpt_order(costs)]

    def run_one(upos: int):
        index, shard = units[upos]
        sg = subgraphs[index]
        tally = WorkCounter()
        local = _unit_scores(sg, shard, config, tally)
        return upos, local, tally

    for upos, local, tally in thread_map(
        run_one, miss_order, workers=config.workers
    ):
        sg = subgraphs[units[upos][0]]
        commit(upos, local, tally.examined)
        bc[sg.vertices] += local
        _fold_tally(counter, tally)


def _pool_recompute(
    bc,
    subgraphs,
    units,
    misses,
    config: APGREConfig,
    counter,
    health: RunHealth,
    commit,
    contributions=None,
) -> None:
    """Fan missed units out over a batched execution engine.

    Missed whole-sub-graph units are chunked into root slices exactly
    like a cache-less ``parallel="processes"`` run (LPT order,
    ``workers``/``steal`` compose unchanged) and shard units run one
    task each, but the engine — the shared-memory pool by default, or
    the one ``contributions`` names (the ``backend=`` dispatch) —
    accumulates into a *concatenated local coordinate space*: each
    missed unit owns a contiguous slice of the score rows, so the
    parent gets every unit's complete local vector back and can commit
    it, which the global-sum layout of :func:`_batched_pool_pass`
    cannot provide.  Per-batch edge tallies come back exactly and are
    summed per unit, so committed entries replay the same tally a
    serial run would count.
    """
    if contributions is None:
        from repro.parallel.batched_pool import _pooled_contributions

        contributions = _pooled_contributions

    miss_units = [units[u] for u in misses]
    miss_sgs = [subgraphs[i] for i, _s in miss_units]
    offsets = np.zeros(len(miss_units) + 1, dtype=np.int64)
    np.cumsum([sg.num_vertices for sg in miss_sgs], out=offsets[1:])
    tasks, weights = _make_tasks(subgraphs, miss_units, config)

    def compute(task_id: int):
        mi, lo, hi = tasks[task_id]
        _index, shard = miss_units[mi]
        sg = miss_sgs[mi]
        tally = WorkCounter()
        if shard >= 0:
            local = _unit_scores(sg, shard, config, tally)
        else:
            local = _unit_scores(sg, shard, config, tally, lo, hi)
        verts = np.arange(offsets[mi], offsets[mi] + sg.num_vertices)
        return verts, local, _counter_triple(tally)

    supervisor = SupervisorConfig(
        timeout=config.timeout,
        max_retries=config.max_retries,
        fallback=config.fallback,
    )
    concat, edge_total, batch_edges = contributions(
        compute,
        weights,
        n=int(offsets[-1]),
        workers=config.workers,
        steal=config.steal,
        config=supervisor,
        health=health,
    )
    merge_examined(counter, edge_total)
    # batch_edges carries per-batch examined TOTALS (push + pull), so
    # the committed per-unit replay tallies are direction-blind
    per_unit_edges = np.zeros(len(miss_units), dtype=np.int64)
    for task_id, (mi, _lo, _hi) in enumerate(tasks):
        per_unit_edges[mi] += batch_edges[task_id]
    for mi, sg in enumerate(miss_sgs):
        local = concat[offsets[mi] : offsets[mi + 1]]
        commit(misses[mi], local, int(per_unit_edges[mi]))
        bc[sg.vertices] += local


def _journaled_pass(
    graph: CSRGraph,
    bc: np.ndarray,
    partition: Partition,
    config: APGREConfig,
    store,
    counter,
    stats: APGREStats,
) -> RunHealth:
    """Journal-aware BC phase: replay the journal, recompute the rest.

    Mirrors :func:`_cached_pass`, with the run journal
    (:mod:`repro.journal`) as the durability layer underneath:

    1. ``begin`` opens (or, with ``resume=True``, verifies and
       replays) the journal in ``config.journal_dir``; a fingerprint
       mismatch raises :class:`~repro.errors.JournalError` before any
       BC work starts.
    2. Journal-replayed sub-graphs merge their durable local vectors
       (``stats.subgraphs_resumed`` / ``edges_resumed``).
    3. With a cache configured, remaining sub-graphs consult the store
       next; hits are journaled too, so the resume contract never
       depends on cache warmth.
    4. The rest recompute through :func:`_ladder_recompute`; every
       completed contribution is committed to the journal (and store)
       parent-side, after the pool's poisoned-slot recovery.

    A :class:`KeyboardInterrupt` (SIGINT, or the CLI's SIGTERM
    translation) or an :class:`~repro.errors.ExecutionError` with
    ``fallback=False`` finalises the journal as a *resumable partial
    result* before re-raising — the error message names the journal
    directory so the operator knows ``--resume`` will pick the run
    back up.
    """
    from repro.journal import RunJournal, run_fingerprint

    subgraphs = partition.subgraphs
    journal = RunJournal(config.journal_dir)
    resumed = journal.begin(
        run_fingerprint(graph, config), resume=config.resume
    )
    health = RunHealth()
    health.journal_resumable = bool(resumed)

    units = _expand_units(subgraphs, config)
    slots = [
        index if shard < 0 else (index + 1) * _SLOT_BASE + shard
        for index, shard in units
    ]
    todo: List[int] = []
    for upos, (index, shard) in enumerate(units):
        sg = subgraphs[index]
        entry = resumed.get(slots[upos])
        if entry is not None and entry.scores.size == sg.num_vertices:
            bc[sg.vertices] += entry.scores
            stats.edges_resumed += entry.edges
            stats.subgraphs_resumed += 1
        else:
            todo.append(upos)

    keys = None
    if store is not None:
        keys = [_unit_key(subgraphs[i], s, config) for i, s in units]
        misses: List[int] = []
        for upos in todo:
            sg = subgraphs[units[upos][0]]
            entry = store.get(keys[upos])
            if entry is not None and entry.scores.size == sg.num_vertices:
                bc[sg.vertices] += entry.scores
                stats.edges_replayed += entry.edges
                stats.subgraphs_replayed += 1
                journal.record_contribution(
                    slots[upos], entry.scores, entry.edges
                )
            else:
                misses.append(upos)
        todo = misses
    stats.subgraphs_recomputed = len(todo)

    def commit(upos: int, local: np.ndarray, edges: int) -> None:
        if store is not None:
            store.put(keys[upos], local, edges)
        journal.record_contribution(slots[upos], local, edges)

    try:
        if todo:
            _ladder_recompute(
                graph, bc, subgraphs, units, todo, config, counter,
                stats, commit, health,
            )
    except KeyboardInterrupt:
        journal.finalize("interrupted")
        health.interrupted = True
        health.journal_records = journal.records_written
        health.journal_resumable = True
        raise
    except ExecutionError as exc:
        # fallback=False: surface the failure, but as a *resumable* one
        journal.finalize("partial")
        health.journal_records = journal.records_written
        health.journal_resumable = True
        durable = journal.records_written + stats.subgraphs_resumed
        raise type(exc)(
            f"{exc} [{durable} contribution(s) journaled in "
            f"{config.journal_dir}; rerun with resume=True / --resume "
            f"to continue from them]"
        ) from exc
    except BaseException:
        journal.finalize("partial")
        raise
    journal.finalize(
        "partial" if health.fallback_path == "brandes" else "complete"
    )
    health.journal_records = journal.records_written
    return health


def apgre_bc(
    graph: CSRGraph,
    *,
    threshold: Optional[int] = None,
    parallel: str = "serial",
    backend: Optional[str] = None,
    workers: int = 1,
    eliminate_pendants: bool = True,
    alpha_beta_method: str = "auto",
    timeout: Optional[float] = None,
    max_retries: int = 2,
    fallback: bool = True,
    batch_size=None,
    parallel_batched: bool = False,
    steal: bool = True,
    cache=None,
    cache_dir=None,
    compress: bool = False,
    journal_dir=None,
    resume: bool = False,
    shard: bool = False,
    shard_max_size: Optional[int] = None,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Exact BC via APGRE — the convenience entry point.

    Equivalent to ``apgre_bc_detailed(graph, APGREConfig(...)).scores``;
    see :class:`repro.core.config.APGREConfig` for the options
    (``timeout``/``max_retries``/``fallback`` set the supervision
    policy of the parallel engines; ``batch_size`` routes each
    sub-graph's roots through the multi-source batched kernel;
    ``backend`` picks the batched execution engine —
    ``"threads"``/``"processes"``/``"serial"``/``"auto"``, see
    :mod:`repro.parallel.backends` and docs/PERFORMANCE.md;
    ``parallel_batched`` is the legacy spelling of
    ``backend="processes"`` on the persistent shared-memory pool,
    with ``steal`` toggling work stealing;
    ``cache``/``cache_dir`` enable the decomposition-aware
    contribution cache — see :mod:`repro.cache` and docs/CACHING.md;
    ``compress`` runs each sub-graph through the structural
    compression ladder first — see :mod:`repro.compress` and
    docs/COMPRESSION.md; ``journal_dir``/``resume`` enable the
    crash-safe run journal and checkpoint/resume — see
    :mod:`repro.journal` and docs/ROBUSTNESS.md; ``shard``/
    ``shard_max_size`` split over-threshold sub-graphs along vertex
    separators into independently scheduled shard tasks with exact
    boundary correction — see :mod:`repro.shard` and
    docs/SHARDING.md; ``kernel`` names the compute kernel for the
    batched traversals and implies ``batch_size="auto"`` — see
    :mod:`repro.graph.kernels` and docs/KERNELS.md).
    """
    kwargs = dict(
        parallel=parallel,
        backend=backend,
        workers=workers,
        eliminate_pendants=eliminate_pendants,
        alpha_beta_method=alpha_beta_method,
        timeout=timeout,
        max_retries=max_retries,
        fallback=fallback,
        batch_size=batch_size,
        parallel_batched=parallel_batched,
        steal=steal,
        cache=cache,
        cache_dir=cache_dir,
        compress=compress,
        journal_dir=journal_dir,
        resume=resume,
        shard=shard,
        kernel=kernel,
    )
    if threshold is not None:
        kwargs["threshold"] = threshold
    if shard_max_size is not None:
        kwargs["shard_max_size"] = shard_max_size
    return apgre_bc_detailed(graph, APGREConfig(**kwargs)).scores
