"""GEMM problem shapes and the paper's irregular-shape taxonomy.

Section III-A: ftIMM targets single-precision ``C += A x B`` where at least
one of M, K is large and ``N <= 96``.  Three types:

* **Type 1** — tall-and-skinny x small: ``M >> K ~ N``
  (K-means distance matrices, first CNN layers after im2col).
* **Type 2** — skinny-and-tall x tall-and-skinny: ``K >> M ~ N``
  (inner-product-dominated reductions).
* **Type 3** — large regular x tall-and-skinny: ``M ~ K >> N``.

Shapes outside the irregular domain are classified ``REGULAR`` and are the
home turf of the TGEMM baseline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ShapeError

#: the "small dimension" ceiling of the irregular domain (paper: N <= 96).
IRREGULAR_N_MAX = 96
#: a dimension counts as "large" beyond this (assumption: a few blocks).
LARGE_DIM = 2048
#: M and K count as "comparable" within this ratio (for type 3 vs 1/2).
COMPARABLE_RATIO = 8.0


class GemmType(enum.Enum):
    TALL_SKINNY_TIMES_SMALL = "type1"     # M >> K ~ N
    SKINNY_TALL_TIMES_TALL = "type2"      # K >> M ~ N
    REGULAR_TIMES_TALL_SKINNY = "type3"   # M ~ K >> N
    REGULAR = "regular"


@dataclass(frozen=True)
class GemmShape:
    """An ``M x N x K`` single-precision GEMM problem (``C += A @ B``)."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1 or self.k < 1:
            raise ShapeError(f"GEMM dims must be positive, got {self}")

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k

    @property
    def a_bytes(self) -> int:
        return 4 * self.m * self.k

    @property
    def b_bytes(self) -> int:
        return 4 * self.k * self.n

    @property
    def c_bytes(self) -> int:
        return 4 * self.m * self.n

    @property
    def total_bytes(self) -> int:
        """Compulsory traffic: read A, B, C and write C once."""
        return self.a_bytes + self.b_bytes + 2 * self.c_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per compulsory DDR byte."""
        return self.flops / self.total_bytes

    def classify(self) -> GemmType:
        m, n, k = self.m, self.n, self.k
        if n > IRREGULAR_N_MAX:
            return GemmType.REGULAR
        m_large = m >= LARGE_DIM
        k_large = k >= LARGE_DIM
        if m_large and k_large and max(m, k) <= COMPARABLE_RATIO * min(m, k):
            return GemmType.REGULAR_TIMES_TALL_SKINNY
        if m_large and m > k:
            return GemmType.TALL_SKINNY_TIMES_SMALL
        if k_large and k > m:
            return GemmType.SKINNY_TALL_TIMES_TALL
        if m_large:
            return GemmType.TALL_SKINNY_TIMES_SMALL
        if k_large:
            return GemmType.SKINNY_TALL_TIMES_TALL
        return GemmType.REGULAR

    def __str__(self) -> str:
        return f"{self.m}x{self.n}x{self.k}"
