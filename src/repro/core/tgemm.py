"""TGEMM — the traditional GEMM implementation (Alg. 1), as the baseline.

Loop structure (Goto-style, adapted to FT-m7032 by [23], [24]):

* A is staged through GSM in ``m_g x k_g`` panels (``A_g``, ping-pong);
* the N dimension is split in ``n_a``-wide strips, **and this is the only
  multi-core parallel loop** — with ``N <= 96`` a single strip exists and
  only one DSP core computes, which is TGEMM's structural weakness on
  irregular shapes (Section III-C, problem 2);
* per strip, ``B_a`` (``k_g x n_a``) and ``C_a`` (``m_g x n_a``) live in AM
  (both ping-pong), ``A_s`` (``m_s x k_g``) in SM (ping-pong), and the fixed
  6x96 micro-kernel runs with implicit padding (problem 1).

The A_g panel loads are split across all cores' DMA engines (cooperative
fill); a cluster barrier separates panel fill from use, with the standard
two-slot discipline letting panel ``j+1`` stream in while panel ``j`` is
consumed.
"""

from __future__ import annotations

from ..hw.config import ClusterConfig
from ..kernels.registry import KernelRegistry
from .blocking import TgemmPlan
from .lowering import expand
from .plans import GemmExecution
from .schedule import (
    AM, DDR, GSM, SM, Dma, Floor, Kernel, Loop, Schedule, Sync, Tile,
    active_cores,
)
from .shapes import GemmShape


#: Alg. 1's loop nest
_STEPS = (Loop((("i", "m", "m_g"),), (
    Loop((("j", "k", "k_g"),), (
        Dma("A->A_g", DDR, GSM, "i", "j", "j"),
        Sync("A_g[{i},{j}] ready"),
        # the parallel loop: N-strips round-robin across cores
        Loop((("t", "n", "n_a"),), (Floor((
            Dma("B->B_a", DDR, AM, "j", "t", "t"),
            Dma("C->C_a", DDR, AM, "i", "t", "t"),
            Loop((("ii", "i", "m_s"),), (
                Dma("A_g->A_s", GSM, SM, "ii", "j", "ii"),
                Kernel("ii", "t", "j"),
            ), overlap=True),
            Dma("C_a->C", AM, DDR, "i", "t"),
        )),), deal=True),
    ), overlap=True),
)),)


def schedule_tgemm(
    shape: GemmShape, cluster: ClusterConfig, plan: TgemmPlan
) -> Schedule:
    """Alg. 1's schedule (FP32 only, with the fixed 6x96 kernel).

    An N-strip's B_a and C_a slots follow the strip's global index, so
    on an even core count a core reuses one slot: the strips of a core
    serialize, and the timing adds B_a's load in line.
    """
    # only cores that own an N-strip ever touch their AM/SM tiles, but
    # TGEMM allocates them unconditionally (static layout)
    tiles = (
        Tile("A_g", GSM, plan.m_g, plan.k_g, 2),
        Tile("B_a", AM, plan.k_g, plan.n_a, 2),
        Tile("C_a", AM, plan.m_g, plan.n_a, 2),
        Tile("A_s", SM, plan.m_s, plan.k_g, 2),
    )
    return Schedule(
        "tgemm", shape, plan, tiles, _STEPS,
        active_cores(cluster.n_cores, shape.n, plan.n_a), kernels="tgemm",
    )


def build_tgemm(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: TgemmPlan | None = None,
    registry: KernelRegistry | None = None,
    *,
    bindable: bool = False,
) -> GemmExecution:
    """Lower a GEMM to TGEMM's op streams (``bindable`` as in
    :func:`~repro.core.parallel_m.build_parallel_m`)."""
    plan = (plan or TgemmPlan()).validate(cluster)
    return expand(
        schedule_tgemm(shape, cluster, plan), cluster, registry,
        bindable=bindable,
    )
