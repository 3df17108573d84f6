"""Closed-form timing of the three GEMM algorithms.

The DES executor is exact but walks every op; the paper's largest sweeps
(M up to 2^22 in Fig. 5 d/e) lower to millions of ops.  This module
composes the same quantities analytically:

* micro-kernel times come from the same generated-kernel cycle models;
* DMA times use the DES engine's formula, startup plus the bytes the
  slowest medium touched carries over its bandwidth
  (:mod:`repro.hw.dma`), computed from the row geometry;
* double-buffered loops use the exact two-slot recurrence
  ``finish = load + compute + (n-1) * max(load, compute)``;
* DDR contention is approximated by an even split across the cores active
  in the phase (``bw / n_active``) — the processor-sharing steady state.

The approximations (steady contention, serialized phase boundaries) are
validated against the DES executor on medium shapes by
``tests/test_executors.py`` and quantified by the ablation benchmark.

All functions take the *already adjusted* blocking plan, so the analytic
and event-driven paths are guaranteed to time the same plan.
"""

from __future__ import annotations

import math

from ..core.blocking import DTYPE_SIZES, FP32, KPlan, MPlan, TgemmPlan
from ..core.shapes import GemmShape
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
# M-parallel (Alg. 4)
# ---------------------------------------------------------------------------


def analytic_parallel_m(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: MPlan,
    registry: KernelRegistry | None = None,
    *,
    use_gsm: bool = True,
    kernel_style: str = "ftimm",
) -> TimedResult:
    """Two ablation knobs:

    * ``use_gsm=False`` — Alg. 4 without the B-in-GSM cache: every B_a
      tile streams from DDR, so the shared operand is re-read once per
      M chunk over the contended port.
    * ``kernel_style="tgemm"`` — the M-parallel loop structure but with
      TGEMM's fixed, implicitly-padded 6x96 micro-kernel, isolating what
      kernel auto-generation itself contributes (requires ``plan.m_s <=
      6``).
    """
    cs = _Costs(cluster, registry)
    cs.esize = plan.esize
    if kernel_style == "tgemm":
        kernel_cycles = lambda ms, nc, kc: cs.registry.tgemm(ms, nc, kc).cycles
    elif kernel_style == "ftimm":
        kernel_cycles = (
            lambda ms, nc, kc: cs.registry.ftimm(ms, nc, kc, plan.dtype).cycles
        )
    else:
        raise ValueError(f"unknown kernel_style {kernel_style!r}")
    m, n, k = shape.m, shape.n, shape.k
    p = cluster.n_cores
    n_chunks = math.ceil(m / plan.m_a)
    p_active = min(p, n_chunks)
    ddr_share = cs.ddr_share(p_active)
    gsm_share = cluster.gsm_bandwidth / max(1, p_active)

    def chunk_time(mr: int, ncg: int, kcg: int) -> float:
        """One m_a chunk; overlapped DMA streams cannot exceed the core's
        DDR share, so the composed estimate is floored by the byte count."""
        total = 0.0
        for nc, nc_count in _blocks(ncg, plan.n_a):
            c_load = cs.dma_s(MemKind.DDR, MemKind.AM, mr, nc, ddr_share)
            c_store = c_load
            ddr_bytes = 2 * cs.ddr_eff_bytes(mr, nc)
            jj_pairs: list[tuple[float, float]] = []
            for kc, kc_count in _blocks(kcg, plan.k_a):
                if use_gsm:
                    b_load = cs.dma_s(MemKind.GSM, MemKind.AM, kc, nc, gsm_share)
                else:
                    b_load = cs.dma_s(MemKind.DDR, MemKind.AM, kc, nc, ddr_share)
                    ddr_bytes += kc_count * cs.ddr_eff_bytes(kc, nc)
                tt_pairs: list[tuple[float, float]] = []
                for ms, ms_count in _blocks(mr, plan.m_s):
                    a_load = cs.dma_s(MemKind.DDR, MemKind.SM, ms, kc, ddr_share)
                    kern_s = kernel_cycles(ms, nc, kc) / cs.clock
                    tt_pairs.extend([(a_load, kern_s)] * ms_count)
                    ddr_bytes += ms_count * cs.ddr_eff_bytes(ms, kc)
                tt_time = pingpong_seq(tt_pairs)
                jj_pairs.extend([(b_load, tt_time)] * kc_count)
            composed = c_load + pingpong_seq(jj_pairs) + c_store
            total += nc_count * max(
                composed, ddr_bytes / cs.core_ddr_bw(p_active)
            )
        return total

    seconds = 0.0
    for ncg, ncg_count in _blocks(n, plan.n_g):
        j_pairs: list[tuple[float, float]] = []
        for kcg, kcg_count in _blocks(k, plan.k_g):
            # cooperative B_g fill at the full DDR port (skipped entirely
            # in the no-GSM ablation)
            if not use_gsm:
                per_core = sum(
                    chunk_time(mr, ncg, kcg)
                    for mr in busiest_core_chunks(m, plan.m_a, p)
                )
                j_pairs.extend([(0.0, per_core + cs.barrier_s)] * kcg_count)
                continue
            bg_fill = cs.dma_s(
                MemKind.DDR, MemKind.GSM, kcg, ncg,
                min(cs.ddr_bw, p * cs.core_cap),
            )
            # busiest core's chunk list for this panel (C_a is single-
            # buffered, so a core's chunks serialize)
            per_core = sum(
                chunk_time(mr, ncg, kcg)
                for mr in busiest_core_chunks(m, plan.m_a, p)
            )
            compute = per_core + cs.barrier_s
            j_pairs.extend([(bg_fill, compute)] * kcg_count)
        seconds += ncg_count * pingpong_seq(j_pairs)
    return cs.result(shape, seconds, "ftimm-m")


# ---------------------------------------------------------------------------
# K-parallel (Alg. 5)
# ---------------------------------------------------------------------------


def analytic_parallel_k(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: KPlan,
    registry: KernelRegistry | None = None,
) -> TimedResult:
    cs = _Costs(cluster, registry)
    cs.esize = plan.esize
    m, n, k = shape.m, shape.n, shape.k
    p = cluster.n_cores
    n_chunks = math.ceil(k / plan.k_a)
    p_active = min(p, n_chunks)
    ddr_share = cs.ddr_share(p_active)

    def tile_time(mar: int, nar: int) -> float:
        init_s = (
            max(1, mar * nar * plan.esize // cs.core.am_bytes_per_cycle)
            / cs.clock
        )

        def chunk_pair(kc: int) -> tuple[float, float]:
            b_load = cs.dma_s(MemKind.DDR, MemKind.AM, kc, nar, ddr_share)
            u_pairs: list[tuple[float, float]] = []
            for ms, ms_count in _blocks(mar, plan.m_s):
                a_load = cs.dma_s(MemKind.DDR, MemKind.SM, ms, kc, ddr_share)
                kern_s = cs.registry.ftimm(ms, nar, kc, plan.dtype).cycles / cs.clock
                u_pairs.extend([(a_load, kern_s)] * ms_count)
            return (b_load, pingpong_seq(u_pairs))

        # busiest core's chunks; B_a double-buffers across them, but all
        # of the core's DDR streams (A and B) share its bandwidth slice
        chunks = busiest_core_chunks(k, plan.k_a, p)
        pairs = [chunk_pair(kc) for kc in chunks]
        ddr_bytes = 0
        for kc in chunks:
            ddr_bytes += cs.ddr_eff_bytes(kc, nar)
            for ms, ms_count in _blocks(mar, plan.m_s):
                ddr_bytes += ms_count * cs.ddr_eff_bytes(ms, kc)
        loop_time = max(pingpong_seq(pairs), ddr_bytes / cs.core_ddr_bw(p_active))
        red_s = reduction_seconds(cluster, mar * nar * plan.esize, p_active)
        return init_s + loop_time + cs.barrier_s + red_s

    seconds = 0.0
    for mgr, mgr_count in _blocks(m, plan.m_g):
        for ngr, ngr_count in _blocks(n, plan.n_g):
            tile_total = 0.0
            for mar, mar_count in _blocks(mgr, plan.m_a):
                for nar, nar_count in _blocks(ngr, plan.n_a):
                    tile_total += mar_count * nar_count * tile_time(mar, nar)
            seconds += mgr_count * ngr_count * tile_total
    return cs.result(shape, seconds, "ftimm-k")


# ---------------------------------------------------------------------------
# TGEMM (Alg. 1)
# ---------------------------------------------------------------------------


def analytic_tgemm(
    shape: GemmShape,
    cluster: ClusterConfig,
    plan: TgemmPlan,
    registry: KernelRegistry | None = None,
) -> TimedResult:
    cs = _Costs(cluster, registry)
    m, n, k = shape.m, shape.n, shape.k
    p = cluster.n_cores
    n_strips = math.ceil(n / plan.n_a)
    p_active = min(p, n_strips)
    ddr_share = cs.ddr_share(p_active)
    gsm_share = cluster.gsm_bandwidth / max(1, p_active)

    def strip_time(mr: int, nc: int, kc: int) -> float:
        b_load = cs.dma_s(MemKind.DDR, MemKind.AM, kc, nc, ddr_share)
        c_load = cs.dma_s(MemKind.DDR, MemKind.AM, mr, nc, ddr_share)
        tt_pairs: list[tuple[float, float]] = []
        for ms, ms_count in _blocks(mr, plan.m_s):
            a_load = cs.dma_s(MemKind.GSM, MemKind.SM, ms, kc, gsm_share)
            kern_s = cs.registry.tgemm(ms, nc, kc).cycles / cs.clock
            tt_pairs.extend([(a_load, kern_s)] * ms_count)
        composed = b_load + c_load + pingpong_seq(tt_pairs) + c_load
        ddr_bytes = cs.ddr_eff_bytes(kc, nc) + 2 * cs.ddr_eff_bytes(mr, nc)
        return max(composed, ddr_bytes / cs.core_ddr_bw(p_active))

    seconds = 0.0
    for mr, mr_count in _blocks(m, plan.m_g):
        j_pairs: list[tuple[float, float]] = []
        for kc, kc_count in _blocks(k, plan.k_g):
            ag_fill = cs.dma_s(
                MemKind.DDR, MemKind.GSM, mr, kc,
                min(cs.ddr_bw, p * cs.core_cap),
            )
            # busiest core's N-strips for this panel (strips serialize on
            # a core: B_a/C_a ping-pong gives partial overlap we ignore)
            strips = sum(
                strip_time(mr, nc, kc)
                for nc in busiest_core_chunks(n, plan.n_a, p)
            )
            compute = strips + cs.barrier_s
            j_pairs.extend([(ag_fill, compute)] * kc_count)
        seconds += mr_count * pingpong_seq(j_pairs)
    return cs.result(shape, seconds, "tgemm")
