"""Exactness checks against Brandes and against cache-free APGRE.

The oracle is ``repro.baselines.brandes.brandes_bc`` on its per-source
path, which shares no traversal code with the batched APGRE kernels.
It costs seconds per graph, so it always runs outside timed regions,
once per graph version, and its vectors are cached on disk by graph
digest.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from workloads import graph_digest

# Scores agree with Brandes to 1e-9 of the largest score: summation
# order differs between the kernels, so bit-equality is not promised.
REL_TOL = 1e-9
# `repro-bc compute` prints scores with four decimals.
PRINTED_TOL = 5e-5


def tolerance(ref: np.ndarray) -> float:
    return REL_TOL * max(1.0, float(np.abs(ref).max(initial=0.0)))


def vector_ok(scores: np.ndarray, ref: np.ndarray) -> bool:
    scores = np.asarray(scores, dtype=np.float64)
    return scores.shape == ref.shape and bool(
        np.abs(scores - ref).max(initial=0.0) <= tolerance(ref)
    )


def topk_ok(pairs: Sequence[Sequence[float]], ref: np.ndarray, k: int, slack: float = 0.0) -> bool:
    """Tie-robust top-k check of ``[(vertex, score), ...]``.

    Each reported score must be the vertex's true score, the vertices
    must be distinct, and the scores must be the k largest true scores
    in order — so any valid tie order passes.
    """
    tol = tolerance(ref) + slack
    want = np.sort(ref)[::-1][: min(k, ref.size)]
    if len(pairs) != want.size:
        return False
    verts = [int(v) for v, _ in pairs]
    if len(set(verts)) != len(verts) or not all(0 <= v < ref.size for v in verts):
        return False
    got = np.array([float(s) for _, s in pairs])
    return bool(
        np.all(np.abs(got - ref[verts]) <= tol) and np.all(np.abs(got - want) <= tol)
    )


def parse_cli_top(stdout: str) -> List[List[float]]:
    """The ``vertex bc`` rows of ``repro-bc compute`` output."""
    rows = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#") and parts[0] != "vertex":
            rows.append([int(parts[0]), float(parts[1])])
    return rows


class Oracle:
    """Brandes vectors by graph digest, memoised in memory and on disk."""

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self._memo: Dict[str, np.ndarray] = {}

    def brandes(self, graph) -> np.ndarray:
        from repro.baselines.brandes import brandes_bc

        key = graph_digest(graph)
        if key in self._memo:
            return self._memo[key]
        path = self.cache_dir / f"brandes-{key}.npy"
        if path.exists():
            ref = np.load(path)
        else:
            ref = brandes_bc(graph)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp.npy")
            np.save(tmp, ref)
            tmp.replace(path)
        self._memo[key] = ref
        return ref
