"""ftIMM's K-dimension parallelization (Alg. 5).

For GEMMs where both M and N are small and K is huge (the skinny-tall x
tall-skinny case), neither the N loop (TGEMM) nor the M loop can feed
eight cores.  Alg. 5 splits K instead: each core accumulates a *partial*
``C_a`` over its ``k_a`` chunks, and partials are reduced across cores
through GSM — data reuse is preserved at the price of a per-tile reduction,
which is why this strategy is reserved for small-M/N shapes and why its
scaling is the weakest in Fig. 6.

Two ping-pong levels overlap DMA and compute within a core: B_a tiles
across the core's K chunks and A_s row groups within a tile.  A cluster
SYNC implements the reduction (modeled cost from
:func:`repro.hw.cluster.reduction_seconds`; functional mode sums the
per-core partial buffers and accumulates into C, guarded under a fault
plan like the other strategies' updates of C).
"""

from __future__ import annotations

from ..hw.config import ClusterConfig
from ..kernels.registry import KernelRegistry
from .blocking import KPlan, adjust_k_plan
from .lowering import expand
from .plans import GemmExecution
from .schedule import (
    AM, DDR, GSM, SM, Dma, Floor, Kernel, Loop, Schedule, Sync, Tile, Zero,
    active_cores,
)
from .shapes import GemmShape


#: Alg. 5's loop nest: each core accumulates its round-robin K chunks
#: (B_a ping-pongs over the core's own chunks), then the partials reduce
_STEPS = (Loop((("i", "m", "m_g"), ("j", "n", "n_g")), (
    Loop((("ii", "i", "m_a"), ("jj", "j", "n_a")), (
        Zero("ii", "jj"),
        Floor((Loop((("t", "k", "k_a"),), (
            Dma("B->B_a", DDR, AM, "t", "jj", "t", per_core=True),
            Loop((("u", "ii", "m_s"),), (
                Dma("A->A_s", DDR, SM, "u", "t", "u"),
                Kernel("u", "jj", "t"),
            ), overlap=True),
        ), deal=True, overlap=True),)),
        Sync("reduce[{ii},{jj}]", "ii", "jj"),
    )),
)),)


def schedule_k(shape: GemmShape, cluster: ClusterConfig, plan: KPlan) -> Schedule:
    """Alg. 5's schedule for an adjusted ``plan``."""
    tiles = (
        Tile("B_a", AM, plan.k_a, plan.n_a, 2),
        Tile("C_a", AM, plan.m_a, plan.n_a),
        Tile("A_s", SM, plan.m_s, plan.k_a, 2),
        # C_g staging in GSM for the reduction (capacity accounting; the
        # functional reduction reads/writes DDR C directly, which is
        # numerically identical)
        Tile("C_g", GSM, min(plan.m_g, shape.m), min(plan.n_g, shape.n)),
    )
    return Schedule(
        "ftimm-k", shape, plan, tiles, _STEPS,
        active_cores(cluster.n_cores, shape.k, plan.k_a), dtype=plan.dtype,
    )


def build_parallel_k(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: KPlan | None = None,
    registry: KernelRegistry | None = None,
    *,
    adjust: bool = True,
    pingpong: bool = True,
    bindable: bool = False,
) -> GemmExecution:
    """Lower a GEMM to the K-parallel strategy's op streams.

    ``pingpong=False`` single-buffers B_a and A_s (double-buffering
    ablation).  ``bindable`` as in
    :func:`~repro.core.parallel_m.build_parallel_m`.
    """
    if plan is None:
        plan = KPlan()
    if adjust:
        plan = adjust_k_plan(plan, shape, cluster)
    else:
        plan = plan.validate(cluster)
    schedule = schedule_k(shape, cluster, plan)
    return expand(
        schedule, cluster, registry, pingpong=pingpong, bindable=bindable,
        n_active=schedule.n_active,
    )
