"""Batched / grouped GEMM."""

import hashlib

import numpy as np
import pytest

from repro.core import batched
from repro.core.batched import b_digest, grouped_gemm, naive_batch_seconds
from repro.core.shapes import GemmShape
from repro.errors import PlanError, ShapeError
from repro.obs import collecting


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


class TestBDigest:
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


def reference_digest(b: np.ndarray) -> str:
    """blake2b-16 of dtype + shape + bytes, computed without the table."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(b.dtype).encode())
    h.update(str(b.shape).encode())
    h.update(np.ascontiguousarray(b).tobytes())
    return h.hexdigest()


def intern_counts(reg) -> dict[str, float]:
    snap = reg.snapshot()
    return {
        name: snap.get(f"core/batched/b_intern/{name}", {}).get("value", 0)
        for name in ("hits", "misses", "evictions")
    }


@pytest.fixture
def empty_table():
    batched.clear_interned()
    yield
    batched.clear_interned()


@pytest.mark.usefixtures("empty_table")
class TestBIntern:
    def big_b(self, seed=0, shape=(256, 64)):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape).astype(np.float32)

    def test_copies_hit_and_match_reference(self):
        b = self.big_b()
        with collecting() as reg:
            digests = [b_digest(b.copy()) for _ in range(5)]
        assert digests == [reference_digest(b)] * 5
        assert intern_counts(reg) == {"hits": 4, "misses": 1, "evictions": 0}

    def test_one_bit_outside_the_sample_never_shares(self):
        b1 = self.big_b()
        b2 = b1.copy()
        # (1, 1) is off the 32-row / 8-column sample grid of a 256x64 B
        b2.view(np.uint32)[1, 1] ^= 1
        assert batched._fingerprint(b1) == batched._fingerprint(b2)
        d1, d2 = b_digest(b1), b_digest(b2)
        assert d1 == reference_digest(b1)
        assert d2 == reference_digest(b2)
        assert d1 != d2
        # both now live under one key; each still finds its own entry
        assert b_digest(b1.copy()) == d1
        assert b_digest(b2.copy()) == d2

    def test_signed_zero_is_a_different_b(self):
        b1 = np.zeros((64, 64), dtype=np.float32)
        b2 = b1.copy()
        b2[2, 3] = -0.0
        # off the sample grid: only the bitwise compare tells them apart
        assert batched._fingerprint(b1) == batched._fingerprint(b2)
        assert b_digest(b1) == reference_digest(b1)
        assert b_digest(b2) == reference_digest(b2)
        assert b_digest(b1) != b_digest(b2)

    def test_nan_content_hits(self):
        b = self.big_b()
        b[3, 5] = np.nan
        with collecting() as reg:
            assert b_digest(b) == reference_digest(b)
            assert b_digest(b.copy()) == reference_digest(b)
        assert intern_counts(reg)["hits"] == 1

    def test_mutation_after_digest_gives_new_content_digest(self):
        b = self.big_b()
        before = b_digest(b)
        b.view(np.uint32)[1, 1] ^= 1 << 20
        after = b_digest(b)
        assert after == reference_digest(b)
        assert after != before
        # the table kept a private copy: the old content still digests
        b.view(np.uint32)[1, 1] ^= 1 << 20
        assert b_digest(b) == before

    def test_non_contiguous_view_matches_contiguous_copy(self):
        base = self.big_b(shape=(128, 96))
        for view in (base[::2, 1::3], base.T, base[:, 10:40]):
            assert not view.flags.c_contiguous
            expected = reference_digest(np.ascontiguousarray(view))
            assert b_digest(view) == expected
            assert b_digest(np.ascontiguousarray(view)) == expected

    def test_shape_and_dtype_stay_separate(self):
        b = np.arange(12, dtype=np.float32).reshape(3, 4)
        variants = [
            b, b.reshape(4, 3), b.reshape(2, 6),
            b.view(np.int32), b.view(np.uint32), b.astype(np.float64),
        ]
        digests = [b_digest(v) for v in variants]
        assert digests == [reference_digest(v) for v in variants]
        assert len(set(digests)) == len(variants)

    def test_eviction_holds_the_byte_bound(self, monkeypatch):
        b_bytes = self.big_b().nbytes
        monkeypatch.setattr(batched, "_INTERN_BYTES", 3 * b_bytes)
        bs = [self.big_b(seed) for seed in range(5)]
        with collecting() as reg:
            for b in bs:
                assert b_digest(b) == reference_digest(b)
                assert batched._interned_bytes <= batched._INTERN_BYTES
            # the oldest two are gone: digesting one again misses
            assert b_digest(bs[0].copy()) == reference_digest(bs[0])
            # the newest is still kept: a hit
            assert b_digest(bs[4].copy()) == reference_digest(bs[4])
        assert intern_counts(reg) == {"hits": 1, "misses": 6, "evictions": 3}
        assert batched._interned_bytes == 3 * b_bytes

    def test_b_over_the_bound_is_not_kept(self, monkeypatch):
        b = self.big_b()
        monkeypatch.setattr(batched, "_INTERN_BYTES", b.nbytes - 1)
        with collecting() as reg:
            assert b_digest(b) == reference_digest(b)
            assert b_digest(b.copy()) == reference_digest(b)
        assert intern_counts(reg) == {"hits": 0, "misses": 2, "evictions": 0}
        assert batched._interned_bytes == 0
        assert not batched._interned
