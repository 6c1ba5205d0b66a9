"""Batched per-sub-graph BC (Algorithm 2 over root batches).

:func:`repro.core.bc_subgraph.bc_subgraph` runs the forward BFS and the
fused four-dependency backward sweep one root at a time; inside the
dominant top sub-graph (the bulk of Table 4's cost) that pays per-level
numpy dispatch overhead ``|R_sgi|`` times over.  This module runs a
batch of ``B`` roots through the ``(B, n)`` kernels of
:mod:`repro.graph.batched` instead, and folds the four dependencies of
equations 3–6 into *one* seeded sweep first:

* ``δ_o2o = β(s)·δ_i2o`` — both start from the same seed shape
  (``α(a)`` at every boundary articulation point ``a ≠ s``, scaled by
  ``β(s)`` for ``δ_o2o``) and follow the same recurrence, which is
  linear in the seed;
* ``δ_o2i = β(s)·δ_i2i`` by definition (Algorithm 2's ``sizeO2I``);
* ``δ_t = δ_i2i + δ_i2o`` obeys the Brandes recurrence
  ``δ_t(v) = seed(v) + Σ_w (σ_v/σ_w)(1 + δ_t(w))`` with ``seed = α``
  on the boundary articulation points and zero at the root.

So equation 7's row for root ``s`` collapses to
``c_s · δ_t(v)`` with ``c_s = 1 + γ(s) + [s∈A]·β(s)`` on reached
``v ≠ s``, plus the pendant credit ``γ(s)·(δ_t(s) − [undirected] +
[s∈A]·α(s))`` at ``v == s``.  One seeded sweep per batch computes
``δ_t`` — the SpMM level loop
(:func:`repro.graph.batched.spmm_dependencies`) by default, or the
recorded-arc replay (:func:`repro.graph.batched.accumulate_dependencies_batched`)
for the ``"arcs"``/``"pull"`` kernels and hosts without scipy — and
the merge is one ``c @ δ_t`` product over the batch.

Scores match the per-source path within float64 summation tolerance
(the merge order differs), and the examined-edge tally is identical.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.baselines.common import WorkCounter
from repro.decompose.partition import Subgraph
from repro.errors import AlgorithmError
from repro.graph.batched import (
    BatchWorkspace,
    _spmm_operands_for,
    accumulate_dependencies_batched,
    bfs_sigma_batched,
    resolve_batch_size,
    spmm_available,
    spmm_dependencies,
)
from repro.types import SCORE_DTYPE, VERTEX_DTYPE

__all__ = ["bc_subgraph_batched"]


def bc_subgraph_batched(
    sg: Subgraph,
    *,
    eliminate_pendants: bool = True,
    counter: Optional[WorkCounter] = None,
    roots: Optional[np.ndarray] = None,
    batch_size: Union[int, str] = "auto",
    workers: int = 1,
    compress: bool = False,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Local BC scores of one sub-graph via the batched kernel.

    Same contract as :func:`repro.core.bc_subgraph.bc_subgraph` (root
    subsets from different calls still sum to the full sub-graph
    scores), with roots processed ``batch_size`` at a time; ``"auto"``
    resolves a RAM-safe batch from the sub-graph's own n and m divided
    by ``workers`` — pass the pool's worker count when several of
    these calls run concurrently, so they share one RAM budget instead
    of each claiming all of it.  ``compress=True`` routes through the
    structural compression kernel when any reduction rule fires (the
    shrunken core does not benefit from SpMM batching); trivial plans
    stay on the batched path.

    ``kernel`` picks how the seeded sweep runs
    (:mod:`repro.graph.kernels`): ``None`` resolves to
    :func:`~repro.graph.kernels.default_kernel_name` (no environment
    lookup or feature probe per sub-graph); it, ``"spmm"``, ``"numba"``
    and ``"auto"`` when it does not pick pull run the SpMM level loop.
    ``"arcs"``, ``"pull"`` (the direction-optimizing forward, whose
    recorded DAG arcs are identical to the push kernel's) and hosts
    without scipy replay recorded arcs instead (see docs/KERNELS.md).
    """
    if compress:
        from repro.compress import bc_subgraph_compressed, compression_plan

        plan = compression_plan(sg, eliminate_pendants=eliminate_pendants)
        if plan.nontrivial:
            return bc_subgraph_compressed(
                sg,
                plan,
                eliminate_pendants=eliminate_pendants,
                counter=counter,
                roots=roots,
            )
    g = sg.graph
    n = g.n
    undirected = not g.directed
    bc = np.zeros(n, dtype=SCORE_DTYPE)
    if n == 0:
        return bc
    if eliminate_pendants:
        gamma = sg.gamma
        if roots is None:
            roots = sg.roots
    else:
        gamma = np.zeros(n, dtype=SCORE_DTYPE)
        if roots is None:
            roots = np.arange(n, dtype=VERTEX_DTYPE)
    if roots.size == 0:
        return bc
    from repro.graph import kernels as _kernels

    if kernel is None:
        name = _kernels.default_kernel_name()
    else:
        name = _kernels.resolve_kernel_name(kernel, graph=g)
    forward = "pull" if name == "pull" else None
    use_spmm = forward is None and name != "arcs" and spmm_available()
    batch = resolve_batch_size(
        batch_size, n, g.num_arcs, workers=workers, kernel=forward
    )
    if batch is None:
        raise AlgorithmError("bc_subgraph_batched needs a batch size")

    alpha = sg.alpha.astype(SCORE_DTYPE)
    beta = sg.beta.astype(SCORE_DTYPE)
    is_art = sg.is_boundary_art.astype(bool)
    # δ_t's seed: α on the boundary articulation points (the sweeps
    # zero each row's own root); no boundary means plain Brandes
    seed = np.where(is_art, alpha, 0.0) if is_art.any() else None
    workspace = BatchWorkspace()
    operands = (
        _spmm_operands_for(g, min(batch, roots.size)) if use_spmm else None
    )

    for lo in range(0, roots.size, batch):
        srcs = np.asarray(roots[lo : lo + batch], dtype=np.int64)
        rows0 = np.arange(srcs.size)
        if use_spmm:
            dist, delta = spmm_dependencies(
                g,
                srcs,
                seed=seed,
                counter=counter,
                operands=operands,
                workspace=workspace,
            )
        else:
            res = bfs_sigma_batched(
                g,
                srcs,
                keep_level_arcs=True,
                workspace=workspace,
                kernel=forward,
            )
            if counter is not None:
                counter.add(res.edges_traversed)
                if res.edges_pulled:
                    add_pulled = getattr(counter, "add_pulled", None)
                    (add_pulled or counter.add)(res.edges_pulled)
                if res.direction_switches:
                    add_switch = getattr(counter, "add_switch", None)
                    if add_switch is not None:
                        add_switch(res.direction_switches)
            dist = res.dist
            delta = accumulate_dependencies_batched(
                res, seed=seed, counter=counter, workspace=workspace
            )
        g_s = gamma[srcs].astype(SCORE_DTYPE)
        src_art = is_art[srcs]

        # merge for v == s: the γ(s) derived pendant sources (roots
        # are unique, so the fancy-indexed += has no collisions)
        self_dep = delta[rows0, srcs] - (1.0 if undirected else 0.0)
        self_dep += np.where(src_art, alpha[srcs], 0.0)
        bc[srcs] += g_s * self_dep

        # merge for v != s, reached vertices only (equation 7 folded
        # into one per-row multiplicity; see the module docstring)
        c = 1.0 + g_s + np.where(src_art, beta[srcs], 0.0)
        np.putmask(delta, dist < 1, 0.0)
        bc += c @ delta
    return bc
