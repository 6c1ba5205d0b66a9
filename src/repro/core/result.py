"""Result types for instrumented APGRE runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.supervisor import RunHealth

__all__ = [
    "PhaseTimings",
    "APGREStats",
    "BCResult",
    "normalize_scores",
    "to_networkx_convention",
]


def normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Rescale raw ordered-pair BC scores to [0, 1].

    The raw convention in this package sums ``σ_st(v)/σ_st`` over all
    ordered pairs ``s ≠ v ≠ t`` (the paper's definition), whose count
    is ``(n-1)(n-2)`` — the standard normaliser for both directed and
    undirected graphs (networkx's undirected normalisation, half the
    pairs over halved scores, cancels to the same value).
    """
    n = scores.size
    pairs = (n - 1) * (n - 2)
    if pairs <= 0:
        return scores.astype(np.float64, copy=True)
    return scores / pairs


def to_networkx_convention(
    scores: np.ndarray, *, directed: bool
) -> np.ndarray:
    """Convert raw scores to networkx's unnormalised convention.

    networkx counts each unordered pair once on undirected graphs, so
    undirected scores are halved; directed scores pass through.
    """
    if directed:
        return scores.astype(np.float64, copy=True)
    return scores / 2.0


@dataclass
class PhaseTimings:
    """Wall-clock seconds per APGRE phase (paper Figure 8).

    ``top_bc`` vs ``rest_bc`` splits the third phase between the top
    sub-graph and all others — the quantity Figure 8 plots ("the BC
    calculation of the top sub-graph is the majority of the total
    execution time"). The split is measured in serial mode; parallel
    modes report the whole phase under ``rest_bc``.
    """

    partition: float = 0.0
    alpha_beta: float = 0.0
    top_bc: float = 0.0
    rest_bc: float = 0.0

    @property
    def total(self) -> float:
        return self.partition + self.alpha_beta + self.top_bc + self.rest_bc

    def fractions(self) -> Dict[str, float]:
        """Phase shares of total time (empty-total guard included)."""
        t = self.total or 1.0
        return {
            "partition": self.partition / t,
            "alpha_beta": self.alpha_beta / t,
            "top_bc": self.top_bc / t,
            "rest_bc": self.rest_bc / t,
        }


@dataclass
class APGREStats:
    """Counters describing one APGRE run.

    ``edges_traversed`` counts edges the run actually examined;
    ``edges_replayed`` counts the examined-edge tallies of cached
    sub-graph contributions that were *replayed* instead of
    recomputed (cache-enabled runs only — docs/CACHING.md).  The two
    are never mixed: TEPS over ``edges_traversed`` stays an honest
    hardware rate, and ``edges_replayed`` quantifies the work the
    cache eliminated.

    ``edges_resumed`` / ``subgraphs_resumed`` are the journal's
    analogue (``resume=True`` runs only — docs/ROBUSTNESS.md): the
    examined-edge tallies and count of sub-graph contributions
    *replayed from the run journal* instead of recomputed.  Like
    ``edges_replayed`` they never feed TEPS, and the identity
    ``edges_resumed + edges_replayed + edges_traversed`` equals the
    from-scratch ``edges_traversed`` of an identical unjournaled run.

    ``shards_created`` / ``separator_vertices`` / ``edges_correction``
    describe divide-and-conquer sharding (``shard=True`` runs only;
    docs/SHARDING.md): the number of shard work units carved out of
    over-threshold sub-graphs, the total separator size, and the
    edges examined building the plans' barrier tables and shard
    graphs — one-time setup work a sharded run performs that an
    unsharded run would not.  ``largest_shard_ratio`` is the largest
    shard (interior + separator) over its sub-graph's vertex count,
    maximised over the sharded sub-graphs (1.0 when nothing sharded)
    — the critical-path shrink factor sharding bought.
    ``edges_correction`` stays out of ``edges_traversed``/TEPS,
    exactly like the replay tallies; the per-source sweeps *and* the
    correction-sweep replays they trigger are real per-run traversal
    work and stay inside ``edges_traversed``.

    ``alpha_beta_method`` / ``alpha_beta_arcs`` name the α/β method
    the run resolved to and the arcs it examined
    (:class:`repro.decompose.alphabeta.AlphaBetaStats`): the blocked
    BFS runs for ``"bfs"``, the per-sub-graph local reach for
    ``"tree"``.  Decomposition work, so outside
    ``edges_traversed``/TEPS.

    ``vertices_merged`` / ``chains_contracted`` / ``vertices_peeled``
    tally the structural compression (``compress=True`` runs only;
    docs/COMPRESSION.md): twin-class members collapsed into their
    representatives, chain interiors contracted into super-edges, and
    pendants folded into endpoint mass.  ``compression_ratio`` is
    ``Σ n / Σ n_core`` over all sub-graphs (1.0 when compression is
    off or nothing fired).  Like ``edges_replayed``, these never feed
    TEPS — they describe work *avoided*, not performed.

    ``edges_pulled`` / ``kernel_switches`` describe the direction-
    optimizing compute kernel (docs/KERNELS.md): arcs examined by
    bottom-up (pull) passes and the number of push↔pull direction
    flips.  ``edges_traversed`` counts top-down probes and backward
    replays, so ``edges_traversed + edges_pulled`` is a kernelled
    run's true examined-arc total — both terms are real memory
    traffic and feed TEPS; ``kernel_switches`` is heuristic
    bookkeeping and stays outside it.
    """

    num_subgraphs: int = 0
    num_articulation_points: int = 0
    num_boundary_arts: int = 0
    num_removed_pendants: int = 0
    num_sources: int = 0
    edges_traversed: int = 0
    edges_pulled: int = 0
    kernel_switches: int = 0
    edges_replayed: int = 0
    edges_resumed: int = 0
    subgraphs_replayed: int = 0
    subgraphs_resumed: int = 0
    subgraphs_recomputed: int = 0
    alpha_beta_pairs: int = 0
    alpha_beta_method: str = ""
    alpha_beta_arcs: int = 0
    shards_created: int = 0
    separator_vertices: int = 0
    edges_correction: int = 0
    largest_shard_ratio: float = 1.0
    vertices_merged: int = 0
    chains_contracted: int = 0
    vertices_peeled: int = 0
    compression_ratio: float = 1.0
    timings: PhaseTimings = field(default_factory=PhaseTimings)


@dataclass
class BCResult:
    """Scores plus run statistics.

    ``scores[v]`` is the exact unnormalised BC of vertex ``v`` (same
    convention as every baseline in :mod:`repro.baselines`).

    ``health`` is the supervision report of a
    ``parallel="processes"`` run (retries, worker crashes, timeouts,
    serial fallbacks — see
    :class:`repro.parallel.supervisor.RunHealth`); ``None`` for
    serial and thread runs, which have no pool to supervise. Check
    ``health.degraded`` to detect a run that needed any fallback.
    """

    scores: np.ndarray
    stats: APGREStats
    health: Optional["RunHealth"] = None

    def top_k(self, k: int) -> np.ndarray:
        """Vertex ids of the ``k`` highest-BC vertices, best first."""
        k = min(k, self.scores.size)
        idx = np.argpartition(-self.scores, np.arange(k))[:k]
        return idx.astype(np.int64)
