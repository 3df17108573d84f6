"""ftIMM's M-dimension parallelization (Alg. 4).

The roles of GSM and the parallel loop are inverted relative to TGEMM:
the *shared* operand B (small, since ``N <= 96``) is cached in GSM, and the
abundant M dimension is split across cores in ``m_a`` chunks — every core
computes on its own private rows of A and C streamed straight from DDR, so
all eight cores are busy regardless of N.  Three ping-pong levels overlap
DMA with compute: B_g panels across ``k_g`` chunks, B_a tiles across
``k_a`` chunks, and A_s row-groups across ``m_s`` steps.  C_a stays
resident in AM for a whole ``(t, ii)`` tile (single-buffered — with the
paper's blocks, B_a double + C_a single fill AM to the exact byte).
"""

from __future__ import annotations

from ..hw.config import ClusterConfig
from ..kernels.registry import KernelRegistry
from .blocking import MPlan, adjust_m_plan
from .lowering import expand
from .plans import GemmExecution
from .schedule import (
    AM, DDR, GSM, SM, Dma, Floor, Kernel, Loop, Schedule, Sync, Tile,
    active_cores,
)
from .shapes import GemmShape


def _steps(use_gsm: bool) -> tuple:
    if use_gsm:
        panel = (Dma("B->B_g", DDR, GSM, "j", "i", "j"),)
        b_a = Dma("B_g->B_a", GSM, AM, "jj", "ii", "jj")
    else:
        panel = ()
        b_a = Dma("B->B_a", DDR, AM, "jj", "ii", "jj")
    # one C_a tile of a core's m_a chunk: C stays resident across K
    c_tile = Floor((
        Dma("C->C_a", DDR, AM, "t", "ii"),
        Loop((("jj", "j", "k_a"),), (
            b_a,
            Loop((("tt", "t", "m_s"),), (
                Dma("A->A_s", DDR, SM, "tt", "jj", "tt"),
                Kernel("tt", "ii", "jj"),
            ), overlap=True),
        ), overlap=True),
        Dma("C_a->C", AM, DDR, "t", "ii"),
    ))
    return (Loop((("i", "n", "n_g"),), (
        Loop((("j", "k", "k_g"),), panel + (
            Sync("B_g[{j},{i}] ready"),
            # the parallel loop: m_a chunks of M round-robin across cores
            Loop((("t", "m", "m_a"),), (
                Loop((("ii", "i", "n_a"),), (c_tile,)),
            ), deal=True),
        ), overlap=True),
    )),)


#: Alg. 4's loop nest, and its ablation without the B-in-GSM cache
_STEPS = {True: _steps(True), False: _steps(False)}


def schedule_m(
    shape: GemmShape, cluster: ClusterConfig, plan: MPlan, *, use_gsm: bool = True
) -> Schedule:
    """Alg. 4's schedule for an adjusted ``plan`` (``use_gsm`` as in
    :func:`~repro.executor.analytic.analytic_parallel_m`)."""
    tiles = (
        Tile("B_g", GSM, plan.k_g, plan.n_g, 2),
        Tile("B_a", AM, plan.k_a, plan.n_a, 2),
        Tile("C_a", AM, plan.m_a, plan.n_a),
        Tile("A_s", SM, plan.m_s, plan.k_a, 2),
    )
    return Schedule(
        "ftimm-m", shape, plan, tiles, _STEPS[use_gsm],
        active_cores(cluster.n_cores, shape.m, plan.m_a), dtype=plan.dtype,
    )


def build_parallel_m(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: MPlan | None = None,
    registry: KernelRegistry | None = None,
    *,
    adjust: bool = True,
    pingpong: bool = True,
    bindable: bool = False,
) -> GemmExecution:
    """Lower a GEMM to the M-parallel strategy's op streams.

    ``pingpong=False`` single-buffers every tile (the ablation of the
    paper's double-buffering scheme): each DMA then serializes against the
    compute consuming its buffer.  ``bindable=True`` emits the functional
    closures; ``program.ctx.binding`` (the
    :meth:`~repro.core.lowering.LoweringContext.binding` context manager)
    binds each call's operands, fault injector and kernel mode.
    """
    if plan is None:
        plan = MPlan()
    if adjust:
        plan = adjust_m_plan(plan, shape, cluster)
    else:
        plan = plan.validate(cluster)
    return expand(
        schedule_m(shape, cluster, plan), cluster, registry,
        pingpong=pingpong, bindable=bindable,
    )
