"""Tests for the batched multi-source kernels.

The contract under test: batching only regroups work.  Per-row
``dist``/``sigma`` are *bit-identical* to :func:`bfs_sigma`, BC scores
match the per-source path within float64 summation tolerance, and the
examined-edge tally (the MTEPS denominator) is exactly the serial one.
"""

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc, brandes_python_bc
from repro.baselines.common import WorkCounter, run_per_source
from repro.baselines.registry import get_algorithm
from repro.core.apgre import apgre_bc, apgre_bc_detailed
from repro.core.batched_subgraph import bc_subgraph_batched
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.errors import AlgorithmError
from repro.generators.suite import paper_suite
from repro.graph.batched import (
    DEFAULT_MAX_BATCH,
    auto_batch_size,
    batched_contributions,
    bfs_sigma_batched,
    resolve_batch_size,
    spmm_available,
)
from repro.graph.traversal import bfs_sigma

from tests.conftest import nx_betweenness


class TestBfsSigmaBatched:
    def test_rows_match_serial_bfs(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        sources = sorted({0, g.n // 3, g.n // 2, g.n - 1})
        res = bfs_sigma_batched(g, sources, keep_level_arcs=True)
        serial_edges = 0
        for row, s in enumerate(sources):
            ref = bfs_sigma(g, s, keep_level_arcs=True)
            serial_edges += ref.edges_traversed
            assert np.array_equal(res.dist[row], ref.dist)
            assert np.array_equal(res.sigma[row], ref.sigma)
        assert res.edges_traversed == serial_edges

    def test_level_arcs_match_serial(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        n = g.n
        sources = sorted({0, n - 1})
        res = bfs_sigma_batched(g, sources, keep_level_arcs=True)
        for row, s in enumerate(sources):
            ref = bfs_sigma(g, s, keep_level_arcs=True)
            for d, (ref_src, ref_dst) in enumerate(ref.level_arcs or []):
                if d < len(res.level_arcs):
                    b_src, b_dst = res.level_arcs[d]
                    mask = b_src // n == row
                    got = set(
                        zip(
                            (b_src[mask] % n).tolist(),
                            (b_dst[mask] % n).tolist(),
                        )
                    )
                else:
                    got = set()
                assert got == set(zip(ref_src.tolist(), ref_dst.tolist()))

    def test_single_source_batch(self, und_random):
        res = bfs_sigma_batched(und_random, [5])
        ref = bfs_sigma(und_random, 5)
        assert np.array_equal(res.dist[0], ref.dist)
        assert np.array_equal(res.sigma[0], ref.sigma)
        assert res.edges_traversed == ref.edges_traversed
        assert res.batch == 1
        assert res.depth == ref.depth

    def test_empty_batch_rejected(self, und_random):
        with pytest.raises(AlgorithmError):
            bfs_sigma_batched(und_random, [])


class TestBatchSizing:
    def test_auto_respects_memory_budget(self):
        # per row: 44n + 20m bytes; a quarter of available_bytes is
        # budgeted, so 8 rows need 32x the per-row estimate
        n, m = 1000, 4000
        per_row = 44 * n + 20 * m
        assert auto_batch_size(n, m, available_bytes=per_row * 32) == 8

    def test_auto_bounds(self):
        assert auto_batch_size(10, 10, available_bytes=0) == 1
        assert (
            auto_batch_size(10, 10, available_bytes=1 << 60)
            == DEFAULT_MAX_BATCH
        )
        assert auto_batch_size(0, 0) == 1

    def test_resolve(self):
        assert resolve_batch_size(None, 10, 10) is None
        assert resolve_batch_size(7, 10, 10) == 7
        auto = resolve_batch_size("auto", 10, 10)
        assert 1 <= auto <= DEFAULT_MAX_BATCH
        with pytest.raises(AlgorithmError):
            resolve_batch_size(0, 10, 10)
        with pytest.raises(AlgorithmError):
            resolve_batch_size(-3, 10, 10)
        with pytest.raises(AlgorithmError):
            resolve_batch_size("large", 10, 10)

    def test_config_validation(self):
        APGREConfig(batch_size=None)
        APGREConfig(batch_size="auto")
        APGREConfig(batch_size=16)
        for bad in (0, -1, "big", 2.5):
            with pytest.raises(AlgorithmError):
                APGREConfig(batch_size=bad)


class TestBatchedBrandes:
    def test_matches_oracle(self, zoo_entry):
        _name, g, nxg = zoo_entry
        if g.n == 0:
            return
        ref = nx_betweenness(nxg)
        got = brandes_bc(g, batch_size=5)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_batch_size_invariance(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        base = brandes_bc(g)
        for bs in (1, 3, g.n, "auto"):
            got = brandes_bc(g, batch_size=bs)
            np.testing.assert_allclose(got, base, rtol=1e-9, atol=1e-9)

    def test_edge_tally_identical_to_serial(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        serial, batched = WorkCounter(), WorkCounter()
        brandes_bc(g, counter=serial)
        brandes_bc(g, counter=batched, batch_size=7)
        assert batched.edges == serial.edges

    def test_contributions_match_per_source_sum(self, und_random):
        g = und_random
        sources = [0, 3, 9, 20]
        expected = run_per_source(g, sources=sources, mode="arcs")
        got = batched_contributions(g, sources)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)

    def test_requires_arcs_mode(self, und_random):
        with pytest.raises(AlgorithmError):
            run_per_source(und_random, mode="succs", batch_size=4)
        with pytest.raises(AlgorithmError):
            run_per_source(
                und_random,
                mode="arcs",
                forward=lambda *a, **k: None,
                batch_size=4,
            )

    def test_registry_entry(self, und_random):
        fn = get_algorithm("batched")
        np.testing.assert_allclose(
            fn(und_random), brandes_bc(und_random), rtol=1e-9, atol=1e-9
        )

    def test_workers_compose_with_batching(self, und_random):
        got = brandes_python_bc(und_random)
        batched = run_per_source(
            und_random, mode="arcs", workers=2, batch_size=4
        )
        np.testing.assert_allclose(batched, got, rtol=1e-9, atol=1e-9)


class TestBatchedSubgraph:
    @pytest.mark.parametrize("eliminate", [True, False])
    def test_matches_per_source_subgraph(self, zoo_entry, eliminate):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        partition = graph_partition(g)
        compute_alpha_beta(g, partition)
        for sg in partition.subgraphs:
            serial_c = WorkCounter()
            ref = bc_subgraph(
                sg, eliminate_pendants=eliminate, counter=serial_c
            )
            # the kernel axis loops here so the test ids stay per graph
            for kernel in (None, "spmm", "arcs", "pull"):
                batched_c = WorkCounter()
                for bs in (1, 3, "auto"):
                    got = bc_subgraph_batched(
                        sg,
                        eliminate_pendants=eliminate,
                        batch_size=bs,
                        counter=batched_c if bs == 3 else None,
                        kernel=kernel,
                    )
                    np.testing.assert_allclose(
                        got, ref, rtol=1e-9, atol=1e-9, err_msg=str(kernel)
                    )
                # bottom-up levels probe a different arc set by design
                # (the pull kernel's split tally is pinned in
                # test_kernels.py)
                if kernel != "pull":
                    assert batched_c.edges == serial_c.edges, kernel

    def test_root_subsets_sum(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        partition = graph_partition(g)
        compute_alpha_beta(g, partition)
        sg = partition.subgraphs[0]
        roots = sg.roots
        if roots.size < 2:
            return
        whole = bc_subgraph_batched(sg, batch_size=2)
        half = roots.size // 2
        split = bc_subgraph_batched(
            sg, roots=roots[:half], batch_size=2
        ) + bc_subgraph_batched(sg, roots=roots[half:], batch_size=2)
        np.testing.assert_allclose(split, whole, rtol=1e-9, atol=1e-9)


class TestBatchedFastPath:
    """Default batched APGRE runs the SpMM sweep, not the arc replay.

    The timing guard in ``test_perf_batched.py`` is too loose to catch
    a silent fall-off onto the recorded-arc path; this one is exact.
    """

    @staticmethod
    def record_forward(monkeypatch, *, forbid):
        """Patch the arc-recording forward pass; return its call log."""
        import repro.core.batched_subgraph as batched_subgraph

        calls = []
        real = batched_subgraph.bfs_sigma_batched

        def recording(*args, **kwargs):
            calls.append(kwargs.get("kernel"))
            if forbid:
                raise AssertionError("bfs_sigma_batched was called")
            return real(*args, **kwargs)

        monkeypatch.setattr(
            batched_subgraph, "bfs_sigma_batched", recording
        )
        return calls

    @pytest.mark.skipif(not spmm_available(), reason="needs scipy")
    def test_default_never_records_arcs(self, monkeypatch, und_random):
        calls = self.record_forward(monkeypatch, forbid=True)
        res = apgre_bc_detailed(und_random, APGREConfig(batch_size="auto"))
        np.testing.assert_allclose(
            res.scores, brandes_bc(und_random), rtol=1e-9, atol=1e-9
        )
        assert calls == []

    def test_arcs_kernel_reaches_replay(self, monkeypatch, und_random):
        calls = self.record_forward(monkeypatch, forbid=False)
        res = apgre_bc_detailed(
            und_random, APGREConfig(batch_size="auto", kernel="arcs")
        )
        np.testing.assert_allclose(
            res.scores, brandes_bc(und_random), rtol=1e-9, atol=1e-9
        )
        assert calls


class TestAPGREBatched:
    def test_matches_oracle(self, zoo_entry):
        _name, g, nxg = zoo_entry
        if g.n == 0:
            return
        ref = nx_betweenness(nxg)
        for bs in (4, "auto"):
            got = apgre_bc(g, batch_size=bs)
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_processes_mode(self, und_random):
        ref = apgre_bc(und_random)
        got = apgre_bc(
            und_random, parallel="processes", workers=2, batch_size=3
        )
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_no_elimination_ablation(self, und_random):
        ref = apgre_bc(und_random, eliminate_pendants=False)
        got = apgre_bc(
            und_random, eliminate_pendants=False, batch_size="auto"
        )
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


class TestGeneratorSuite:
    """Acceptance sweep: batched vs the pure-Python oracle, all 12
    Table-1 analogues (reduced scale keeps the oracle affordable)."""

    @pytest.mark.timeout(300)
    def test_full_suite_matches_python_oracle(self):
        for name, g in paper_suite(scale=0.2).items():
            ref = brandes_python_bc(g)
            got = brandes_bc(g, batch_size="auto")
            np.testing.assert_allclose(
                got, ref, rtol=1e-9, atol=1e-9,
                err_msg=f"batched kernel diverged on {name}",
            )
