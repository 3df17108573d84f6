"""Transformer attention workload."""

import math

import numpy as np
import pytest

from repro.core.ftimm import ftimm_gemm
from repro.core.shapes import GemmType
from repro.workloads.transformer import AttentionConfig, STANDARD_CONFIGS


def reference_attention(x, w_q, w_k, w_v, n_heads, mm=np.matmul):
    """Multi-head attention (merged-head context), every matmul through
    ``mm``."""
    seq_len, d_model = x.shape
    d_head = d_model // n_heads
    out = np.empty((seq_len, d_model), dtype=np.float32)
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        q = mm(x, w_q[:, cols])                     # (L, d_h): type 1
        k = mm(x, w_k[:, cols])
        v = mm(x, w_v[:, cols])
        scores = mm(q, k.T) / math.sqrt(d_head)     # (L, L)
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        out[:, cols] = mm(weights, v)               # (L, d_h): type 3
    return out


class TestShapes:
    def test_head_projection_is_type1(self):
        cfg = AttentionConfig("t", d_model=768, n_heads=12, seq_len=4096)
        shape = cfg.gemm_shapes()["head_projection"]
        assert shape.n == 64
        assert shape.classify() is GemmType.TALL_SKINNY_TIMES_SMALL

    def test_context_is_type3_for_long_sequences(self):
        cfg = AttentionConfig("t", d_model=1024, n_heads=16, seq_len=8192)
        shape = cfg.gemm_shapes()["context"]
        assert shape.classify() is GemmType.REGULAR_TIMES_TALL_SKINNY

    def test_output_projection_is_regular(self):
        cfg = STANDARD_CONFIGS[0]
        shape = cfg.gemm_shapes()["output_projection"]
        assert shape.classify() is GemmType.REGULAR

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            AttentionConfig("bad", d_model=100, n_heads=3, seq_len=16).d_head

    def test_standard_configs_have_head_dim_64(self):
        assert all(cfg.d_head == 64 for cfg in STANDARD_CONFIGS)


class TestForward:
    def test_simulated_ftimm_runs_real_attention(self):
        rng = np.random.default_rng(4)
        d_model, n_heads, seq_len = 128, 2, 48
        x = rng.standard_normal((seq_len, d_model)).astype(np.float32) * 0.1
        w_q, w_k, w_v = (
            rng.standard_normal((d_model, d_model)).astype(np.float32) * 0.1
            for _ in range(3)
        )

        def ftimm_mm(a, b):
            c = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
            ftimm_gemm(a.shape[0], b.shape[1], a.shape[1],
                       a=np.ascontiguousarray(a), b=np.ascontiguousarray(b),
                       c=c, timing="none")
            return c

        out = reference_attention(x, w_q, w_k, w_v, n_heads, mm=ftimm_mm)
        ref = reference_attention(x, w_q, w_k, w_v, n_heads)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)
