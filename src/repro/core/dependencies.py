"""The four-dependency backward kernel (paper equations 3–6).

Given one source's shortest-path DAG inside a sub-graph, accumulate
simultaneously, level by level from the deepest:

* ``δ_i2i`` (eq. 3) — classic Brandes dependency restricted to the
  sub-graph: ``δ(v) = Σ_w (σv/σw)(1 + δ(w))``;
* ``δ_i2o`` (eq. 4) — paths ending beyond a boundary articulation
  point ``a``: initialised to ``α(a)`` at every articulation point
  (≠ s) and propagated *without* the ``1 +`` term;
* ``δ_o2o`` (eq. 6) — only when the source is itself a boundary
  articulation point: initialised to ``β(s)·α(a)`` and propagated like
  ``δ_i2o``;
* ``δ_o2i`` (eq. 5) needs no sweep of its own — it equals
  ``β(s)·δ_i2i`` and is folded in at score-merge time (Algorithm 2's
  ``sizeO2I``).

All three sweeps share the same DAG arcs, so the kernel fuses them:
one gather of ``σ_src/σ_dst`` per level feeds three scatter-adds.
Within a level step no arc depends on another (arcs only cross level
boundaries), which is exactly why the paper can run the level as a
parallel-for and we can run it as vectorised numpy.

This per-source kernel keeps the paper's split as the reference.  The
sweeps are linear in their seeds, so ``δ_o2o = β(s)·δ_i2o`` and eq. 7
needs only ``δ_i2i + δ_i2o`` — one Brandes sweep seeded with ``α``;
the batched path (:mod:`repro.core.batched_subgraph`) runs that single
sweep and is tested against this kernel (docs/ALGORITHM.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.common import WorkCounter
from repro.errors import AlgorithmError
from repro.graph.traversal import BFSResult
from repro.types import SCORE_DTYPE

__all__ = ["FourDependencies", "accumulate_four_dependencies"]


@dataclass
class FourDependencies:
    """Per-vertex dependency arrays for one source (local ids)."""

    source: int
    source_is_art: bool
    delta_i2i: np.ndarray
    delta_i2o: np.ndarray
    delta_o2o: np.ndarray
    size_o2i: float  # β(s) when the source is a boundary art, else 0


def accumulate_four_dependencies(
    res: BFSResult,
    *,
    alpha: np.ndarray,
    beta: np.ndarray,
    is_art: np.ndarray,
    counter: Optional[WorkCounter] = None,
) -> FourDependencies:
    """Run the fused backward sweep for one source.

    Parameters
    ----------
    res:
        Forward BFS result with ``level_arcs`` kept (the DAG arcs).
    alpha, beta:
        ``α_SGi``/``β_SGi`` per local vertex (zero off the boundary).
    is_art:
        Boundary-articulation mask (the paper's ``A_sgi``).
    counter:
        Optional examined-edge tally.

    Notes
    -----
    Unreachable articulation points keep their ``α`` initialisation in
    ``delta_i2o``; callers must only merge *reached* vertices into BC
    scores (Algorithm 2 only iterates ``Levels[]`` buckets).
    """
    if res.level_arcs is None:
        raise AlgorithmError(
            "four-dependency kernel needs keep_level_arcs=True"
        )
    n = res.dist.size
    s = res.source
    sigma = res.sigma
    s_is_art = bool(is_art[s])

    delta_i2i = np.zeros(n, dtype=SCORE_DTYPE)
    delta_i2o = np.zeros(n, dtype=SCORE_DTYPE)
    delta_o2o = np.zeros(n, dtype=SCORE_DTYPE)

    # Phase 0 (Algorithm 2 lines 10-18): dependency initialisation
    arts = np.flatnonzero(is_art)
    delta_i2o[arts] = alpha[arts]
    size_o2i = 0.0
    if s_is_art:
        size_o2i = float(beta[s])
        delta_o2o[arts] = size_o2i * alpha[arts]
        delta_o2o[s] = 0.0
    delta_i2o[s] = 0.0  # "for all i ∈ A_sgi && i != s"

    # Phase 2 (lines 35-49): fused backward sweep, deepest level first
    for d in range(res.depth - 1, -1, -1):
        src, dst = res.level_arcs[d]
        if counter is not None:
            counter.add(src.size)
        if src.size == 0:
            continue
        coef = sigma[src] / sigma[dst]
        np.add.at(delta_i2i, src, coef * (1.0 + delta_i2i[dst]))
        np.add.at(delta_i2o, src, coef * delta_i2o[dst])
        if s_is_art:
            np.add.at(delta_o2o, src, coef * delta_o2o[dst])

    return FourDependencies(
        source=s,
        source_is_art=s_is_art,
        delta_i2i=delta_i2i,
        delta_i2o=delta_i2o,
        delta_o2o=delta_o2o,
        size_o2i=size_o2i,
    )
