"""Dynamic adjusting: strategy selection + block-size adaptation (IV-C).

The decision procedure the paper describes:

* ``N <= n_a`` and M "large sufficiently"  →  **M-parallel** (Alg. 4) —
  covers type 1 (tall-skinny x small) and type 3 (regular x tall-skinny);
* ``N <= n_a``, M small, K "large sufficiently"  →  **K-parallel**
  (Alg. 5) — covers type 2 (skinny-tall x tall-skinny), where only the K
  loop can feed all cores;
* otherwise the shape is regular and TGEMM's classic blocking applies.

"Large sufficiently" is not quantified in the paper; here M counts as
small when it cannot give every core a few kernel row-blocks
(``M < n_cores * m_s_min * CHUNK_FACTOR``).  Note the paper is internally
ambiguous for type 3 (Section IV-C prescribes M-parallel; the Fig. 6
discussion says K-parallel was chosen for 20480x32x20480) — we follow the
prescription of IV-C and expose ``force_strategy`` so the Fig. 6
experiment can reproduce the other reading.

Block sizes are then adjusted by :func:`~repro.core.blocking.adjust_m_plan`
/ :func:`~repro.core.blocking.adjust_k_plan`: shrink to the matrix, regrow
the parallelized dimension, keep ``m_s >= 6``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from ..hw.config import ClusterConfig
from ..obs.registry import current as _obs_current
from .blocking import KPlan, MPlan, TgemmPlan, adjust_k_plan, adjust_m_plan
from .shapes import GemmShape, IRREGULAR_N_MAX, LARGE_DIM

Strategy = Literal["m", "k", "tgemm"]

#: how many m_s row-blocks per core M must supply to count as "large".
CHUNK_FACTOR = 4
#: minimum useful kernel rows (paper: kernels with m_s < 6 underperform).
M_S_MIN = 6


@dataclass(frozen=True)
class TuningDecision:
    """The tuner's output: which algorithm and which blocks."""

    strategy: Strategy
    m_plan: MPlan | None = None
    k_plan: KPlan | None = None
    tgemm_plan: TgemmPlan | None = None
    reason: str = ""

    @property
    def plan(self):
        return {
            "m": self.m_plan,
            "k": self.k_plan,
            "tgemm": self.tgemm_plan,
        }[self.strategy]


def m_small_threshold(cluster: ClusterConfig) -> int:
    return cluster.n_cores * M_S_MIN * CHUNK_FACTOR


def choose_strategy(shape: GemmShape, cluster: ClusterConfig) -> Strategy:
    """Pick the parallelization strategy per Section IV-C."""
    if shape.n > IRREGULAR_N_MAX:
        return "tgemm"
    m_small = shape.m < m_small_threshold(cluster)
    k_large = shape.k >= LARGE_DIM
    if m_small and k_large and shape.k > shape.m:
        return "k"
    return "m"


def tune(
    shape: GemmShape,
    cluster: ClusterConfig,
    *,
    force_strategy: Strategy | None = None,
    adjust: bool = True,
    dtype: str = "f32",
) -> TuningDecision:
    """Full dynamic adjusting: strategy + adapted block sizes.

    ``adjust=False`` keeps the paper's initial block sizes (the ablation
    quantifying what dynamic adjusting contributes); ``force_strategy``
    overrides selection (used by Fig. 6's K-parallel scalability case).
    ``dtype="f64"`` tunes for the double-precision extension (N <= 48;
    all footprints at 8 B/element).
    """
    from ..errors import ShapeError
    from .blocking import DTYPE_N_MAX

    if dtype != "f32" and shape.n > DTYPE_N_MAX[dtype]:
        raise ShapeError(
            f"N={shape.n} exceeds {DTYPE_N_MAX[dtype]}, the widest "
            f"{dtype} kernel (3 vector registers)"
        )
    strategy = force_strategy or choose_strategy(shape, cluster)
    m = _obs_current()
    if m is not None:
        m.counter("tuner/decisions").inc()
        m.counter(f"tuner/strategy/{strategy}").inc()
        if force_strategy is not None:
            m.counter("tuner/forced").inc()
    if strategy == "tgemm":
        if dtype != "f32":
            raise ShapeError(
                "the TGEMM baseline is single-precision only (as in the "
                "paper); FP64 covers the irregular domain"
            )
        return TuningDecision(
            strategy="tgemm",
            tgemm_plan=TgemmPlan().validate(cluster),
            reason=f"N={shape.n} > {IRREGULAR_N_MAX}: regular shape",
        )
    if strategy == "k":
        plan = KPlan(dtype=dtype) if dtype == "f32" else KPlan(
            n_a=48, m_s=8, k_a=448, m_g=512, m_a=512, dtype=dtype
        )
        if adjust:
            plan = adjust_k_plan(plan, shape, cluster)
        else:
            plan = plan.validate(cluster)
        return TuningDecision(
            strategy="k",
            k_plan=plan,
            reason=(
                f"M={shape.m} < {m_small_threshold(cluster)} and "
                f"K={shape.k} large: only the K loop can feed "
                f"{cluster.n_cores} cores"
            ),
        )
    plan = MPlan(dtype=dtype) if dtype == "f32" else MPlan(
        k_g=5888, n_g=48, m_a=320, n_a=48, k_a=864, m_s=8, dtype=dtype
    )
    if adjust:
        plan = adjust_m_plan(plan, shape, cluster)
    else:
        plan = plan.validate(cluster)
    return TuningDecision(
        strategy="m",
        m_plan=plan,
        reason=f"M={shape.m} large enough to split across cores",
    )

