"""Transformer attention as irregular GEMMs.

A workload family the 2022 paper predates but that exactly fits its
taxonomy: in multi-head attention with head dimension ``d_h`` (typically
64), the per-head score and value products are

* ``scores = Q_h @ K_h^T`` — an ``(L) x (L) x (d_h)`` GEMM (regular once
  the sequence L is large), but
* ``Q_h / K_h / V_h = X @ W_h`` — ``(B*L) x (d_h) x (d_model)`` — a
  tall-and-skinny times small multiplication (type 1) whenever heads are
  projected separately, and
* ``context_h = P_h @ V_h`` — ``(L) x (d_h) x (L)`` — a large-regular x
  tall-and-skinny product (type 3) for long sequences.

This module enumerates the GEMMs of one attention layer for a given model
configuration, to classify each.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.shapes import GemmShape


@dataclass(frozen=True)
class AttentionConfig:
    """One multi-head attention layer."""

    name: str
    d_model: int
    n_heads: int
    seq_len: int
    batch: int = 1

    @property
    def d_head(self) -> int:
        if self.d_model % self.n_heads:
            raise ValueError(
                f"{self.name}: d_model {self.d_model} not divisible by "
                f"{self.n_heads} heads"
            )
        return self.d_model // self.n_heads

    def gemm_shapes(self) -> dict[str, GemmShape]:
        """The distinct GEMM shapes of one forward attention pass."""
        tokens = self.batch * self.seq_len
        return {
            # one per-head projection (x3 for Q, K, V; x n_heads)
            "head_projection": GemmShape(tokens, self.d_head, self.d_model),
            # attention scores per head
            "scores": GemmShape(self.seq_len, self.seq_len, self.d_head),
            # context per head
            "context": GemmShape(self.seq_len, self.d_head, self.seq_len),
            # output projection (merged heads)
            "output_projection": GemmShape(tokens, self.d_model, self.d_model),
        }


#: representative model configs (head dim 64 throughout — the irregular N).
STANDARD_CONFIGS = [
    AttentionConfig("gpt2-small", d_model=768, n_heads=12, seq_len=1024),
    AttentionConfig("bert-base", d_model=768, n_heads=12, seq_len=512),
    AttentionConfig("long-context", d_model=1024, n_heads=16, seq_len=8192),
]

