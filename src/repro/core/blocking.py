"""Block-size selection: CMR formulas (Eqs. 1–4) and capacity constraints.

The paper derives initial block sizes per parallelization strategy by
maximizing the computation-to-memory ratio (CMR) of each transfer level
under the on-chip capacity limits (Section IV-C), then adjusts them at
runtime to the actual matrix shape (the *dynamic adjusting* that, together
with generated kernels, gives ftIMM its edge on irregular shapes).

Both plan dataclasses know their own on-chip footprints; the paper's
printed defaults fill AM to the byte (B_a double-buffered + C resident =
exactly 768 KB for both strategies), which the tests assert.

``solve_*_plan`` re-derive initial blocks by maximizing CMR on this
machine model; they land near the paper's values but not exactly on them
(the authors' unstated alignment/margin conventions differ), so the paper
defaults are canonical and the solver is exercised as an ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import PlanError
from ..hw.config import ClusterConfig
from .shapes import GemmShape

FP32 = 4
#: element sizes and widest-kernel widths per precision.  The paper is
#: FP32-only; FP64 support is this reproduction's extension (a vector
#: register holds 16 doubles, so kernels top out at n_a = 48).
DTYPE_SIZES = {"f32": 4, "f64": 8}
DTYPE_N_MAX = {"f32": 96, "f64": 48}
#: kernels below this row count waste FMAC slots; the tuner keeps m_s >= 6
#: whenever M allows (Section IV-C, last paragraph).
MIN_GOOD_M_S = 6
#: widest kernel / block column width (FP32).
N_MAX = 96


# ---------------------------------------------------------------------------
# CMR formulas — Eqs. (1)-(4) of the paper, verbatim
# ---------------------------------------------------------------------------


def cmr_f1(m_a: int, k_g: int, n_g: int, num_core: int) -> float:
    """Eq. 1: GSM-level CMR of the M-parallel strategy."""
    num = 2.0 * m_a * k_g * n_g * num_core
    den = num_core * m_a * (k_g + 2.0 * n_g) + k_g * n_g
    return num / den


def cmr_f2(m_a: int, k_a: int, n_a: int, num_core: int) -> float:
    """Eq. 2: AM-level CMR of the M-parallel strategy."""
    num = 2.0 * m_a * k_a * n_a * num_core
    den = num_core * m_a * (k_a + 2.0 * n_a) + k_a * n_a
    return num / den


def cmr_f3(m_g: int, k_a: int, n_g: int, num_core: int) -> float:
    """Eq. 3: GSM-level CMR of the K-parallel strategy."""
    num = 2.0 * m_g * k_a * n_g * num_core
    den = num_core * k_a * (m_g + n_g) + 2.0 * m_g * n_g
    return num / den


def cmr_f4(m_a: int, k_a: int, n_a: int, num_core: int) -> float:
    """Eq. 4: AM-level CMR of the K-parallel strategy."""
    num = 2.0 * m_a * k_a * n_a * num_core
    den = num_core * k_a * (m_a + n_a) + 2.0 * m_a * n_a
    return num / den


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TgemmPlan:
    """TGEMM's fixed blocking (Alg. 1): m_g=512, k_g=512, n_a=96, m_s=6."""

    m_g: int = 512
    k_g: int = 512
    n_a: int = 96
    m_s: int = 6
    dtype: str = "f32"

    @property
    def esize(self) -> int:
        return DTYPE_SIZES[self.dtype]

    def am_bytes(self) -> int:
        # B_a (k_g x n_a, double-buffered) + C_a (m_g x n_a, double-buffered)
        return self.esize * (2 * self.k_g * self.n_a + 2 * self.m_g * self.n_a)

    def sm_bytes(self) -> int:
        return self.esize * 2 * self.m_s * self.k_g

    def gsm_bytes(self) -> int:
        return self.esize * 2 * self.m_g * self.k_g

    def validate(self, cluster: ClusterConfig) -> "TgemmPlan":
        _check_capacity(self, cluster)
        return self


@dataclass(frozen=True)
class MPlan:
    """Blocking of the M-parallel strategy (Alg. 4).

    Defaults are the paper's initial sizes: ``k_g=5888, n_g=96, m_a=320,
    n_a=96, k_a=864, m_s=8``.
    """

    k_g: int = 5888
    n_g: int = 96
    m_a: int = 320
    n_a: int = 96
    k_a: int = 864
    m_s: int = 8
    dtype: str = "f32"

    @property
    def esize(self) -> int:
        return DTYPE_SIZES[self.dtype]

    def am_bytes(self) -> int:
        # B_a double-buffered + C_a resident (single-buffered, per Alg. 4)
        return self.esize * (2 * self.k_a * self.n_a + self.m_a * self.n_a)

    def sm_bytes(self) -> int:
        return self.esize * 2 * self.m_s * self.k_a

    def gsm_bytes(self) -> int:
        return self.esize * 2 * self.k_g * self.n_g  # B_g double-buffered

    def validate(self, cluster: ClusterConfig) -> "MPlan":
        if self.n_a > self.n_g or self.k_a > self.k_g:
            raise PlanError(f"inner blocks exceed outer blocks in {self}")
        if self.m_s > self.m_a:
            raise PlanError(f"m_s={self.m_s} exceeds m_a={self.m_a}")
        _check_capacity(self, cluster)
        return self


@dataclass(frozen=True)
class KPlan:
    """Blocking of the K-parallel strategy (Alg. 5).

    Defaults are the paper's initial sizes: ``m_g=1024, n_g=512, m_a=1024,
    n_a=96, k_a=512, m_s=14`` (``n_g`` is clamped to the problem's N at
    adjust time; the irregular domain has N <= 96).
    """

    m_g: int = 1024
    n_g: int = 512
    m_a: int = 1024
    n_a: int = 96
    k_a: int = 512
    m_s: int = 14
    dtype: str = "f32"

    @property
    def esize(self) -> int:
        return DTYPE_SIZES[self.dtype]

    def am_bytes(self) -> int:
        # B_a double-buffered + C_a partial resident
        return self.esize * (2 * self.k_a * self.n_a + self.m_a * self.n_a)

    def sm_bytes(self) -> int:
        return self.esize * 2 * self.m_s * self.k_a

    def gsm_bytes(self) -> int:
        # C_g tile cached in GSM + reduction staging for one C_a per core
        return self.esize * self.m_g * min(self.n_g, N_MAX)

    def validate(self, cluster: ClusterConfig) -> "KPlan":
        if self.n_a > self.n_g:
            raise PlanError(f"n_a={self.n_a} exceeds n_g={self.n_g}")
        if self.m_a > self.m_g:
            raise PlanError(f"m_a={self.m_a} exceeds m_g={self.m_g}")
        if self.m_s > self.m_a:
            raise PlanError(f"m_s={self.m_s} exceeds m_a={self.m_a}")
        _check_capacity(self, cluster)
        return self


def _check_capacity(plan, cluster: ClusterConfig) -> None:
    core = cluster.core
    if plan.am_bytes() > core.am_bytes:
        raise PlanError(
            f"{type(plan).__name__} AM footprint {plan.am_bytes()} B "
            f"exceeds {core.am_bytes} B: {plan}"
        )
    if plan.sm_bytes() > core.sm_bytes:
        raise PlanError(
            f"{type(plan).__name__} SM footprint {plan.sm_bytes()} B "
            f"exceeds {core.sm_bytes} B: {plan}"
        )
    if plan.gsm_bytes() > cluster.gsm_bytes:
        raise PlanError(
            f"{type(plan).__name__} GSM footprint {plan.gsm_bytes()} B "
            f"exceeds {cluster.gsm_bytes} B: {plan}"
        )


# ---------------------------------------------------------------------------
# initial-block solvers (ablation: re-derive the paper's defaults)
# ---------------------------------------------------------------------------


def solve_m_plan(cluster: ClusterConfig, *, step: int = 32) -> MPlan:
    """Maximize Eq. 2 under AM/SM capacity, then size k_g to fill GSM.

    Search over ``k_a`` (multiples of ``step``); ``m_a`` takes the AM bytes
    left after double-buffering B_a.  ``k_g`` is the largest GSM-resident
    chunk, favoring large values exactly as the paper argues (C_a reuse).
    """
    core = cluster.core
    n_a = n_g = N_MAX
    best: tuple[float, int, int] | None = None
    for k_a in range(step, core.am_bytes // (2 * n_a * FP32) + 1, step):
        am_left = core.am_bytes - 2 * k_a * n_a * FP32
        m_a = am_left // (n_a * FP32)
        if m_a < MIN_GOOD_M_S:
            continue
        score = cmr_f2(m_a, k_a, n_a, cluster.n_cores)
        if best is None or score > best[0]:
            best = (score, k_a, m_a)
    if best is None:
        raise PlanError("AM too small for any M-plan")
    _score, k_a, m_a = best
    k_g = (cluster.gsm_bytes // (2 * n_g * FP32)) // step * step
    k_g = max(k_g, k_a)
    m_s = min(14, core.sm_bytes // (2 * k_a * FP32))
    m_s = max(m_s, 1)
    m_a = m_a // m_s * m_s
    return MPlan(k_g=k_g, n_g=n_g, m_a=m_a, n_a=n_a, k_a=k_a, m_s=m_s).validate(
        cluster
    )


def solve_k_plan(cluster: ClusterConfig, *, step: int = 32) -> KPlan:
    """Maximize Eq. 4 under AM/SM capacity for the K-parallel strategy."""
    core = cluster.core
    n_a = N_MAX
    best: tuple[float, int, int] | None = None
    for k_a in range(step, core.am_bytes // (2 * n_a * FP32) + 1, step):
        am_left = core.am_bytes - 2 * k_a * n_a * FP32
        m_a = am_left // (n_a * FP32)
        if m_a < MIN_GOOD_M_S:
            continue
        score = cmr_f4(m_a, k_a, n_a, cluster.n_cores)
        if best is None or score > best[0]:
            best = (score, k_a, m_a)
    if best is None:
        raise PlanError("AM too small for any K-plan")
    _score, k_a, m_a = best
    m_s = min(14, core.sm_bytes // (2 * k_a * FP32))
    m_s = max(m_s, 1)
    m_g = m_a
    n_g = min(512, cluster.gsm_bytes // (m_g * FP32))
    return KPlan(
        m_g=m_g, n_g=n_g, m_a=m_a, n_a=n_a, k_a=k_a, m_s=m_s
    ).validate(cluster)


# ---------------------------------------------------------------------------
# dynamic adjusting (Section IV-C)
# ---------------------------------------------------------------------------


def _round_up(x: int, mult: int) -> int:
    return -(-x // mult) * mult


def adjust_m_plan(plan: MPlan, shape: GemmShape, cluster: ClusterConfig) -> MPlan:
    """Shrink blocks to the problem and regrow the parallel (M) dimension.

    Rules from Section IV-C: clamp each block to its matrix extent; with the
    AM/SM space freed by a narrow N or short K, enlarge ``m_a`` (the
    dimension the strategy parallelizes) to cut per-block overheads; keep
    ``m_s >= 6`` whenever M allows because narrower kernels underperform.
    """
    core = cluster.core
    esize = plan.esize
    n_a = min(plan.n_a, _round_up(shape.n, 1), DTYPE_N_MAX[plan.dtype])
    n_g = min(plan.n_g, max(n_a, shape.n))
    k_a = min(plan.k_a, _round_up(shape.k, 1))
    k_g = min(plan.k_g, max(k_a, shape.k))
    k_g = max(k_g, k_a)

    m_s = plan.m_s
    if shape.m < plan.m_s * cluster.n_cores:
        m_s = max(1, shape.m // cluster.n_cores)
    if shape.m >= MIN_GOOD_M_S:
        m_s = max(m_s, MIN_GOOD_M_S)
    m_s = min(m_s, max(1, shape.m))
    # SM capacity bounds m_s for the (possibly shrunken) k_a
    m_s = max(1, min(m_s, core.sm_bytes // (2 * max(k_a, 1) * esize) or 1))

    # regrow m_a into the AM space freed by smaller B_a, but size it so the
    # m_a chunks deal out evenly across cores (an uneven deal leaves the
    # busiest core with up to one whole extra chunk of work)
    am_left = core.am_bytes - 2 * k_a * n_a * esize
    m_a_max = max(m_s, (am_left // (n_a * esize)) // m_s * m_s)
    n_chunks = -(-shape.m // m_a_max)
    n_chunks = -(-n_chunks // cluster.n_cores) * cluster.n_cores
    m_a = min(m_a_max, _round_up(-(-shape.m // n_chunks), m_s))
    m_a = max(m_a, m_s)

    return MPlan(
        k_g=k_g, n_g=n_g, m_a=m_a, n_a=n_a, k_a=k_a, m_s=m_s,
        dtype=plan.dtype,
    ).validate(cluster)


def adjust_k_plan(plan: KPlan, shape: GemmShape, cluster: ClusterConfig) -> KPlan:
    """Shrink blocks to the problem and regrow the parallel (K) dimension."""
    core = cluster.core
    esize = plan.esize
    n_a = min(plan.n_a, shape.n, DTYPE_N_MAX[plan.dtype])
    n_g = min(plan.n_g, shape.n)
    n_g = max(n_g, n_a)
    if shape.m < MIN_GOOD_M_S:
        m_s = shape.m
    else:
        # keep m_s >= 6 but pick the candidate (largest on ties) that wastes
        # the fewest padded rows on this M
        candidates = range(MIN_GOOD_M_S, min(plan.m_s, shape.m) + 1)
        m_s = min(
            candidates,
            key=lambda ms: (_round_up(shape.m, ms) - shape.m, -ms),
            default=min(plan.m_s, shape.m),
        )
    m_a = min(plan.m_a, _round_up(shape.m, m_s))
    m_a = max(m_a, m_s)
    m_g = min(plan.m_g, max(m_a, shape.m))
    m_g = max(m_g, m_a)

    # regrow k_a (the parallelized dimension) into freed AM, sized so the
    # K chunks deal out evenly across cores
    am_left = core.am_bytes - m_a * n_a * esize
    k_a_max = am_left // (2 * n_a * esize)
    k_a_max = min(k_a_max, core.sm_bytes // (2 * m_s * esize), shape.k)
    k_a_max = max(k_a_max, 1)
    n_chunks = -(-shape.k // k_a_max)
    n_chunks = -(-n_chunks // cluster.n_cores) * cluster.n_cores
    k_a = min(k_a_max, -(-shape.k // n_chunks))
    if k_a >= 8:
        k_a = -(-k_a // 8) * 8  # keep DMA rows tidy, kernel k_u pairs aligned
        k_a = min(k_a, k_a_max)
    k_a = max(k_a, 1)

    return KPlan(
        m_g=m_g, n_g=n_g, m_a=m_a, n_a=n_a, k_a=k_a, m_s=m_s,
        dtype=plan.dtype,
    ).validate(cluster)
