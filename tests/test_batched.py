"""Batched / grouped GEMM."""

import numpy as np
import pytest

from repro.core.batched import (
    BatchedGemmResult,
    b_digest,
    batched_gemm,
    grouped_gemm,
    naive_batch_seconds,
)
from repro.core.shapes import GemmShape
from repro.errors import PlanError, ShapeError


def make_group(n_items=5, m=64, n=24, k=8, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((k, n)).astype(np.float32)
    a_blocks = [rng.standard_normal((m, k)).astype(np.float32) for _ in range(n_items)]
    c_blocks = [rng.standard_normal((m, n)).astype(np.float32) for _ in range(n_items)]
    refs = [c + a @ b for a, c in zip(a_blocks, c_blocks)]
    return a_blocks, b, c_blocks, refs


class TestGroupedGemm:
    def test_correctness(self):
        a_blocks, b, c_blocks, refs = make_group()
        result = grouped_gemm(a_blocks, b, c_blocks, timing="none")
        for c, ref in zip(c_blocks, refs):
            np.testing.assert_allclose(c, ref, rtol=1e-3, atol=1e-3)
        assert result.n_items == 5
        assert result.shape == GemmShape(5 * 64, 24, 8)

    def test_uneven_block_heights(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((8, 16)).astype(np.float32)
        a_blocks = [
            rng.standard_normal((m, 8)).astype(np.float32) for m in (10, 33, 7)
        ]
        c_blocks = [np.zeros((a.shape[0], 16), np.float32) for a in a_blocks]
        grouped_gemm(a_blocks, b, c_blocks, timing="none")
        for a, c in zip(a_blocks, c_blocks):
            np.testing.assert_allclose(c, a @ b, rtol=1e-4, atol=1e-4)

    def test_timing_only_mode(self):
        result = grouped_gemm(None, None, None, m_blocks=[1000] * 8, n=24, k=8)
        assert result.seconds > 0
        assert result.shape.m == 8000

    def test_mismatched_shapes_rejected(self):
        a_blocks, b, c_blocks, _ = make_group()
        c_blocks[0] = np.zeros((64, 25), np.float32)  # wrong N
        with pytest.raises(PlanError):
            grouped_gemm(a_blocks, b, c_blocks, timing="none")

    def test_empty_group_rejected(self):
        with pytest.raises(ShapeError):
            grouped_gemm([], np.zeros((4, 4), np.float32), [], timing="none")
        with pytest.raises(ShapeError):
            grouped_gemm(None, None, None, m_blocks=[], n=4, k=4)

    def test_missing_args_rejected(self):
        with pytest.raises(PlanError):
            grouped_gemm(None, None, None)


class TestBatchedGemm:
    def test_groups_by_shared_b(self):
        a1, b1, c1, refs1 = make_group(3, seed=2)
        a2, b2, c2, refs2 = make_group(2, m=40, n=16, k=12, seed=3)
        items = [(a, b1, c) for a, c in zip(a1, c1)]
        items += [(a, b2, c) for a, c in zip(a2, c2)]
        result = batched_gemm(items, timing="none")
        assert len(result.groups) == 2
        assert result.n_items == 5
        for c, ref in zip(c1, refs1):
            np.testing.assert_allclose(c, ref, rtol=1e-3, atol=1e-3)
        for c, ref in zip(c2, refs2):
            np.testing.assert_allclose(c, ref, rtol=1e-3, atol=1e-3)

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            batched_gemm([])

    def test_distinct_but_equal_bs_coalesce(self):
        """Content-digest grouping: copies of B land in ONE group."""
        a_blocks, b, c_blocks, refs = make_group(4, seed=7)
        items = [(a, b.copy(), c) for a, c in zip(a_blocks, c_blocks)]
        assert all(
            items[i][1] is not items[j][1]
            for i in range(4) for j in range(i + 1, 4)
        )
        result = batched_gemm(items, timing="none")
        assert len(result.groups) == 1
        assert result.groups[0].n_items == 4
        for c, ref in zip(c_blocks, refs):
            np.testing.assert_allclose(c, ref, rtol=1e-3, atol=1e-3)

    def test_b_digest_distinguishes_content(self):
        b1 = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert b_digest(b1) == b_digest(b1.copy())
        b2 = b1.copy()
        b2[0, 0] += 1
        assert b_digest(b1) != b_digest(b2)
        # same bytes, different shape -> different digest
        assert b_digest(b1) != b_digest(b1.reshape(4, 3))
        # same values, different dtype -> different digest
        assert b_digest(b1) != b_digest(b1.astype(np.float64))

    def test_aggregate_metrics(self):
        a_blocks, b, c_blocks, _ = make_group(4, m=512, n=32, k=16)
        items = [(a, b, c) for a, c in zip(a_blocks, c_blocks)]
        result = batched_gemm(items, timing="analytic")
        assert isinstance(result, BatchedGemmResult)
        assert result.seconds > 0
        assert result.gflops > 0
        assert result.total_flops == 4 * GemmShape(512, 32, 16).flops


class TestGroupingWins:
    def test_grouping_beats_naive_loop(self):
        """The point of the API: one stacked call amortizes fixed costs.

        The win grows as per-item M shrinks (per-call panel fills and
        barriers dominate small items)."""
        small = [GemmShape(256, 24, 8)] * 64
        grouped = grouped_gemm(
            None, None, None,
            m_blocks=[s.m for s in small], n=24, k=8, timing="analytic",
        )
        naive = naive_batch_seconds(small)
        assert naive / grouped.seconds > 1.15

    def test_grouping_never_loses(self):
        big = [GemmShape(2048, 24, 8)] * 16
        grouped = grouped_gemm(
            None, None, None,
            m_blocks=[s.m for s in big], n=24, k=8, timing="analytic",
        )
        assert grouped.seconds <= naive_batch_seconds(big) * 1.01
