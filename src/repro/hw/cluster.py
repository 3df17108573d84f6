"""GPDSP-cluster assemblies.

Two views of a cluster exist, matching the two execution modes:

* :class:`ClusterSpaces` — just the memory spaces (DDR, GSM, per-core SM/AM),
  used by the functional executor to enforce capacities while computing real
  results with NumPy.
* :class:`ClusterSim` — the discrete-event world: shared DDR/GSM bandwidth
  channels and one DMA engine + one compute pipeline per core, used by the
  timed executor (which also runs the cluster-wide SYNC barriers).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConfigError
from .bandwidth import LocalChannel, SharedChannel
from .config import ClusterConfig
from .dma import Channel, DmaEngine
from .event_sim import Callback, Resource, Simulator
from .memory import MemKind, MemorySpace

#: DDR is modeled as effectively unbounded for allocation purposes; the
#: operands of the largest experiment (M = 2^22) would occupy ~4 GB.
_DDR_CAPACITY = 1 << 40

#: on-chip scratch per memory geometry (GSM, AM, SM bytes), see
#: :func:`scratch_arena`
_ARENAS: dict[tuple[int, int, int], np.ndarray] = {}


def scratch_arena(cfg: ClusterConfig) -> np.ndarray:
    """The process-wide byte arena backing a cluster's on-chip tiles.

    Laid out as GSM, then AM and SM of core 0, core 1, ...; clusters that
    differ only in core count share one arena, a smaller cluster using a
    prefix of it.  Every backed lowering views its tiles into it, so
    lowered programs hold no tile memory of their own — and functional
    runs, which never overlap, may reuse each other's bytes.
    """
    key = (cfg.gsm_bytes, cfg.core.am_bytes, cfg.core.sm_bytes)
    size = cfg.gsm_bytes + cfg.n_cores * (cfg.core.am_bytes + cfg.core.sm_bytes)
    arena = _ARENAS.get(key)
    if arena is None or arena.size < size:
        # untouched pages cost no memory until a tile first writes them
        arena = _ARENAS[key] = np.zeros(size, np.uint8)
    return arena


class ClusterSpaces:
    """Memory spaces of one cluster, for capacity-checked functional runs.

    With ``arena`` (see :func:`scratch_arena`) the on-chip spaces back
    their buffers with views into it.
    """

    def __init__(self, cfg: ClusterConfig, arena: np.ndarray | None = None) -> None:
        self.cfg = cfg
        self.ddr = MemorySpace("ddr", MemKind.DDR, _DDR_CAPACITY)
        regions = _arena_regions(cfg, arena)
        self.gsm = MemorySpace(
            "gsm", MemKind.GSM, cfg.gsm_bytes, arena=next(regions)
        )
        self.am, self.sm = [], []
        for i in range(cfg.n_cores):
            self.am.append(MemorySpace(
                f"am{i}", MemKind.AM, cfg.core.am_bytes, arena=next(regions)
            ))
            self.sm.append(MemorySpace(
                f"sm{i}", MemKind.SM, cfg.core.sm_bytes, arena=next(regions)
            ))

    def space(self, kind: MemKind, core_id: int = 0) -> MemorySpace:
        if kind is MemKind.DDR:
            return self.ddr
        if kind is MemKind.GSM:
            return self.gsm
        if not 0 <= core_id < self.cfg.n_cores:
            raise ConfigError(f"core id {core_id} outside cluster")
        return self.am[core_id] if kind is MemKind.AM else self.sm[core_id]


def _arena_regions(cfg: ClusterConfig, arena: np.ndarray | None):
    """Yield the arena slices of GSM, then AM and SM per core (all
    ``None`` without an arena)."""
    sizes = [cfg.gsm_bytes]
    for _ in range(cfg.n_cores):
        sizes += [cfg.core.am_bytes, cfg.core.sm_bytes]
    start = 0
    for size in sizes:
        yield None if arena is None else arena[start : start + size]
        start += size


class CoreSim:
    """DES resources of one DSP core: a DMA engine and a compute pipeline."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        cluster_cfg: ClusterConfig,
        channels: dict[MemKind, Channel],
        faults=None,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.cfg = cluster_cfg.core
        self.dma = DmaEngine(
            sim, core_id, cluster_cfg.core, cluster_cfg.dma, channels,
            faults=faults,
        )
        #: the vector pipeline runs one micro-kernel at a time.
        self.compute = Resource(sim, 1, name=f"vpu{core_id}")
        self.compute_cycles = 0
        self.busy_time = 0.0

    def run_kernel(self, cycles: int, fn: Callback, arg: Any = None) -> None:
        """Occupy the compute pipeline for ``cycles`` cycles, starting now
        or when the pipeline frees; ``fn(arg)`` runs when they are done."""
        self.compute.request(self._granted, (cycles, fn, arg))

    def _granted(self, kernel: tuple[int, Callback, Any]) -> None:
        cycles = kernel[0]
        duration = cycles / self.cfg.clock_hz
        self.compute_cycles += cycles
        self.busy_time += duration
        self.sim.schedule_soon(duration, self._done, kernel)

    def _done(self, kernel: tuple[int, Callback, Any]) -> None:
        self.compute.release()
        _cycles, fn, arg = kernel
        fn(arg)


class ClusterSim:
    """The full DES world for one GPDSP cluster."""

    def __init__(
        self,
        cfg: ClusterConfig,
        sim: Simulator | None = None,
        *,
        record_bandwidth: bool = False,
        faults=None,
    ) -> None:
        self.cfg = cfg
        self.sim = sim or Simulator()
        achieved_ddr = cfg.ddr_bandwidth * cfg.dma.ddr_efficiency
        degradation = None
        if faults is not None and faults.plan.ddr_degradation:
            degradation = [
                (w.start_s, w.end_s, w.factor)
                for w in faults.plan.ddr_degradation
            ]
        self.ddr_channel = SharedChannel(
            self.sim, achieved_ddr, name="ddr",
            per_flow_cap=cfg.dma.channel_bandwidth,
            record_timeline=record_bandwidth,
            degradation=degradation,
        )
        self.gsm_channel = SharedChannel(self.sim, cfg.gsm_bandwidth, name="gsm")
        local_bw = cfg.core.am_bytes_per_cycle * cfg.core.clock_hz
        channels: dict[MemKind, Channel] = {
            MemKind.DDR: self.ddr_channel,
            MemKind.GSM: self.gsm_channel,
            MemKind.AM: LocalChannel(self.sim, local_bw, name="local"),
        }
        channels[MemKind.SM] = channels[MemKind.AM]
        self.cores = [
            CoreSim(self.sim, i, cfg, channels, faults=faults)
            for i in range(cfg.n_cores)
        ]

    def reduction_seconds(self, nbytes: int, n_cores: int) -> float:
        return reduction_seconds(self.cfg, nbytes, n_cores)

    def elapsed(self) -> float:
        return self.sim.now


def reduction_seconds(cfg: ClusterConfig, nbytes: int, n_cores: int) -> float:
    """Cost of a GSM-based all-reduce of an ``nbytes`` partial per core.

    Model (Alg. 5, line 12): every core writes its partial tile to GSM,
    then the cores cooperatively read all partials back, add them, and
    one result is written to DDR.  Traffic: ``n_cores`` writes +
    ``n_cores`` reads of the tile over the GSM crossbar, plus one
    DDR write, plus the vector adds (3 FMAC-equivalent add units).
    This overhead grows with core count — the reason the K-parallel
    strategy scales worst in the paper's Fig. 6.
    """
    if n_cores <= 1:
        return nbytes / cfg.ddr_bandwidth
    gsm_traffic = 2.0 * n_cores * nbytes
    t_gsm = gsm_traffic / cfg.gsm_bandwidth
    t_ddr = nbytes / cfg.ddr_bandwidth
    lanes = cfg.core.fma_lanes_per_cycle * 4  # bytes of adds per cycle
    add_cycles = (n_cores - 1) * nbytes / (lanes * max(1, n_cores))
    t_add = add_cycles / cfg.core.clock_hz
    t_barrier = cfg.barrier_cycles / cfg.core.clock_hz
    return t_gsm + t_ddr + t_add + t_barrier
