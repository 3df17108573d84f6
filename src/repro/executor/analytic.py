"""Closed-form timing of the three GEMM algorithms.

The DES executor is exact but walks every op; the paper's largest sweeps
(M up to 2^22 in Fig. 5 d/e) lower to millions of ops.  This module times
the same :class:`~repro.core.schedule.Schedule` the lowering expands
(:func:`evaluate`), once per distinct block extent instead of once per
op, and restates no loop nest of its own:

* micro-kernel times come from the same generated-kernel cycle models;
* DMA times use the DES engine's formula, startup plus the bytes the
  slowest medium touched carries over its bandwidth
  (:mod:`repro.hw.dma`), computed from the row geometry;
* double-buffered loops use the exact two-slot recurrence
  ``finish = load + compute + (n-1) * max(load, compute)``;
* DDR contention is approximated by an even split across the cores active
  in the phase (``bw / n_active``) — the processor-sharing steady state;
* the dealt loop is timed for its busiest core, and the schedule's
  :class:`~repro.core.schedule.Floor` regions by at least their DDR bytes
  over that core's share.

The approximations (steady contention, serialized phase boundaries) are
validated against the DES executor on medium shapes by
``tests/test_executors.py`` and quantified by the ablation benchmark.

All functions take the *already adjusted* blocking plan, so the analytic
and event-driven paths are guaranteed to time the same plan.
"""

from __future__ import annotations

from ..core.blocking import DTYPE_SIZES, FP32, KPlan, MPlan, TgemmPlan
from ..core.parallel_k import schedule_k
from ..core.parallel_m import schedule_m
from ..core.schedule import (
    DDR, GSM, Dma, Floor, Kernel, Loop, Schedule, Zero, zero_cycles,
)
from ..core.shapes import GemmShape
from ..core.tgemm import schedule_tgemm
from ..hw.cluster import reduction_seconds
from ..hw.config import ClusterConfig
from ..hw.memory import MemKind
from ..kernels.registry import KernelRegistry, registry_for
from .timed import TimedResult


def pingpong_seq(pairs: list[tuple[float, float]]) -> float:
    """Exact two-slot recurrence for heterogeneous iterations.

    ``pairs[i] = (load_i, compute_i)``; load ``i+1`` may start once load
    ``i`` left the engine and compute ``i-1`` freed the slot.
    """
    load_done = 0.0
    comp_done_prev = 0.0
    comp_done = 0.0
    for i, (load, comp) in enumerate(pairs):
        start_load = max(load_done, comp_done_prev)
        load_done = start_load + load
        comp_start = max(load_done, comp_done)
        comp_done_prev = comp_done
        comp_done = comp_start + comp
    return comp_done


def _blocks(total: int, block: int) -> list[tuple[int, int]]:
    """Distinct (extent, count) pairs of blocking ``total`` by ``block``."""
    full, rem = divmod(total, block)
    out = []
    if full:
        out.append((block, full))
    if rem:
        out.append((rem, 1))
    return out


def busiest_core_chunks(total: int, block: int, n_cores: int) -> list[int]:
    """Chunk extents of the most-loaded core under round-robin assignment.

    Chunks of ``block`` (last one possibly a remainder) are dealt to cores
    by index modulo ``n_cores``; the heaviest core is either core 0 (most
    chunks) or the core owning the remainder chunk.  Returns that core's
    chunk-extent list (empty when ``total == 0``).
    """
    full, rem = divmod(total, block)
    n_chunks = full + (1 if rem else 0)
    if n_chunks == 0:
        return []

    def chunks_of(core: int) -> list[int]:
        out = []
        for idx in range(core, n_chunks, n_cores):
            out.append(rem if (rem and idx == n_chunks - 1) else block)
        return out

    candidates = {0, (n_chunks - 1) % n_cores}
    return max(
        (chunks_of(c) for c in candidates),
        key=lambda ch: (sum(ch), len(ch)),
    )


class _Costs:
    """Shared per-call context: timing model, bandwidths, clock."""

    def __init__(self, cluster: ClusterConfig, registry: KernelRegistry | None):
        self.cluster = cluster
        self.core = cluster.core
        self.registry = registry or registry_for(cluster.core)
        self.clock = cluster.core.clock_hz
        self.dma_startup_s = cluster.dma.startup_cycles / self.clock
        #: a core-local (AM/SM) transfer runs at the AM port's rate
        self.local_bw = cluster.core.am_bytes_per_cycle * self.clock
        self.barrier_s = cluster.barrier_cycles / self.clock
        #: achieved DDR bandwidth (theoretical port * sustain efficiency)
        self.ddr_bw = cluster.ddr_bandwidth * cluster.dma.ddr_efficiency
        #: one DMA channel's own rate ceiling and a core's aggregate
        self.flow_cap = cluster.dma.channel_bandwidth
        self.core_cap = cluster.dma.channel_bandwidth * cluster.dma.channels_per_core

    def ddr_share(self, p_active: int) -> float:
        """Per-transfer DDR bandwidth with ``p_active`` cores streaming."""
        return min(self.ddr_bw / max(1, p_active), self.flow_cap)

    def core_ddr_bw(self, p_active: int) -> float:
        """One core's aggregate DDR draw (all its channels together)."""
        return min(self.ddr_bw / max(1, p_active), self.core_cap)

    esize: int = FP32  # element size of the active plan's precision

    def dma_s(self, src: MemKind, dst: MemKind, rows: int, cols: int, bw: float) -> float:
        """Seconds of one ``rows`` x ``cols`` transfer at ``bw``.

        The slowest memory touched sets the medium: DDR rows pay the
        burst overhead, GSM moves the bare bytes at ``bw``, and a
        core-local transfer ignores ``bw`` for the AM port's rate.
        """
        nbytes = rows * cols * self.esize
        if nbytes == 0:
            return 0.0
        if MemKind.DDR in (src, dst):
            nbytes = self.ddr_eff_bytes(rows, cols)
        elif MemKind.GSM not in (src, dst):
            bw = self.local_bw
        return self.dma_startup_s + nbytes / bw

    def ddr_eff_bytes(self, rows: int, cols: int) -> int:
        """Effective DDR bytes of a 2-D transfer (burst overhead included)."""
        return rows * (cols * self.esize + self.cluster.dma.row_overhead_bytes)

    def result(self, shape: GemmShape, seconds: float, strategy: str) -> TimedResult:
        # efficiency is relative to the per-precision peak: FP64 halves the
        # lane count (same 64-bit registers, one double per VPE register)
        peak = self.cluster.peak_flops * FP32 / self.esize
        return TimedResult(
            seconds=seconds,
            shape_flops=shape.flops,
            executed_flops=shape.flops,
            strategy=strategy,
            n_cores=self.cluster.n_cores,
            peak_flops=peak,
            events_processed=0,
            dma_bytes=0,
        )


# ---------------------------------------------------------------------------
# the schedule evaluator
# ---------------------------------------------------------------------------


def evaluate(
    schedule: Schedule,
    cluster: ClusterConfig,
    registry: KernelRegistry | None = None,
) -> TimedResult:
    """Time ``schedule`` on ``cluster`` for its busiest core.

    A loop adds ``count * body`` per distinct block extent, a dealt loop
    its busiest core's chunks, and a double-buffered loop runs
    :func:`pingpong_seq` over ``(leading DMA, rest of body)`` pairs.
    Steps add in program order: DMAs at their route's bandwidth share,
    kernels at their cycle model, barriers and the reduction.  A
    :class:`Floor` region takes at least its DDR bytes over the core's
    share.
    """
    cs = _Costs(cluster, registry)
    cs.esize = esize = DTYPE_SIZES[schedule.dtype]
    p, p_active = cluster.n_cores, schedule.n_active
    ddr_share = cs.ddr_share(p_active)
    gsm_share = cluster.gsm_bandwidth / max(1, p_active)
    #: a cooperative fill of GSM draws on every core's engine
    fill_bw = min(cs.ddr_bw, p * cs.core_cap)
    floor_bw = cs.core_ddr_bw(p_active)
    clock, cost, eff_bytes = cs.clock, cs.dma_s, cs.ddr_eff_bytes
    kernel = schedule.kernel(cs.registry)
    shape, sizes = schedule.shape, vars(schedule.plan)
    extent = {"m": shape.m, "n": shape.n, "k": shape.k}

    def walk(steps: tuple) -> tuple[float, int]:
        """Seconds of ``steps``, and the DDR bytes a :class:`Floor`
        around them counts."""
        seconds, nbytes = 0.0, 0
        for step in steps:
            kind = type(step)
            if kind is Dma:
                s, b = dma(step)
            elif kind is Loop:
                s, b = loop(step)
            elif kind is Floor:
                s, b = walk(step.body)
                s = max(s, b / floor_bw)
            else:
                b = 0
                if kind is Kernel:
                    rows, cols, depth = step
                    s = kernel(extent[rows], extent[cols], extent[depth]).cycles / clock
                elif kind is Zero:
                    s = zero_cycles(
                        extent[step.rows], extent[step.cols], esize, cs.core
                    ) / clock
                else:
                    seconds += cs.barrier_s
                    s = 0.0 if step.rows is None else reduction_seconds(
                        cluster, extent[step.rows] * extent[step.cols] * esize,
                        p_active,
                    )
            seconds += s
            nbytes += b
        return seconds, nbytes

    def dma(step: Dma) -> tuple[float, int]:
        _tag, src, dst, rows, cols, _slot, _per_core = step
        rows, cols = extent[rows], extent[cols]
        if dst is GSM:
            bw = fill_bw
        elif src is GSM:
            bw = gsm_share
        else:
            bw = ddr_share
        nbytes = eff_bytes(rows, cols) if src is DDR or dst is DDR else 0
        return cost(src, dst, rows, cols, bw), nbytes

    def loop(step: Loop) -> tuple[float, int]:
        axes, body, deal, overlap = step
        # (extents, count) per distinct block: a dealt loop's busiest-core
        # chunks, else every combination of its axes' blocks
        if deal:
            (var, total, block), = axes
            runs = [(((var, ext),), 1) for ext in busiest_core_chunks(
                extent[total], sizes[block], p)]
        else:
            runs = [((), 1)]
            for var, total, block in axes:
                runs = [(exts + ((var, ext),), count * n) for exts, count in runs
                        for ext, n in _blocks(extent[total], sizes[block])]
        lead = overlap and type(body[0]) is Dma
        seconds, nbytes, pairs = 0.0, 0, []
        for exts, count in runs:
            extent.update(exts)
            if lead:
                # the rest of a double-buffered body counts its bytes once
                # per distinct extent, as the byte floor always has: an
                # undercount when a panel holds several blocks of one
                # extent (ROADMAP item 5)
                lead_s, lead_b = dma(body[0])
                s, b = walk(body[1:])
                pairs += [(lead_s, s)] * count
                nbytes += count * lead_b + b
                continue
            s, b = walk(body)
            if overlap:
                pairs += [(0.0, s)] * count
            else:
                seconds += count * s
            nbytes += count * b
        return (pingpong_seq(pairs) if overlap else seconds), nbytes

    return cs.result(shape, walk(schedule.steps)[0], schedule.strategy)


def analytic_parallel_m(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: MPlan,
    registry: KernelRegistry | None = None,
    *,
    use_gsm: bool = True,
    kernel_style: str = "ftimm",
) -> TimedResult:
    """Alg. 4's timing, with two ablation knobs:

    * ``use_gsm=False`` — Alg. 4 without the B-in-GSM cache: every B_a
      tile streams from DDR, so the shared operand is re-read once per
      M chunk over the contended port.
    * ``kernel_style="tgemm"`` — the M-parallel loop structure but with
      TGEMM's fixed, implicitly-padded 6x96 micro-kernel, isolating what
      kernel auto-generation itself contributes (requires ``plan.m_s <=
      6``).
    """
    if kernel_style not in ("ftimm", "tgemm"):
        raise ValueError(f"unknown kernel_style {kernel_style!r}")
    schedule = schedule_m(shape, cluster, plan, use_gsm=use_gsm)
    return evaluate(schedule._replace(kernels=kernel_style), cluster, registry)


def analytic_parallel_k(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: KPlan,
    registry: KernelRegistry | None = None,
) -> TimedResult:
    """Alg. 5's timing."""
    return evaluate(schedule_k(shape, cluster, plan), cluster, registry)


def analytic_tgemm(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: TgemmPlan,
    registry: KernelRegistry | None = None,
) -> TimedResult:
    """Alg. 1's timing."""
    return evaluate(schedule_tgemm(shape, cluster, plan), cluster, registry)
