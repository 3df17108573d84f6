"""Roofline model for the GPDSP cluster (the "maximum performance of
ftIMM obtained with the roofline model" line in Fig. 5).

``P_max = min(P_peak, AI * BW)`` with the arithmetic intensity computed
from the compulsory DDR traffic of the GEMM (read A, B and C, write C —
on-chip reuse assumed perfect).  ftIMM lands below this line because the
measured DMA bandwidth stays under the theoretical 42.6 GB/s (burst and
startup overheads), exactly the explanation the paper gives for reaching
up to 67% of the roofline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.shapes import GemmShape
from ..hw.config import ClusterConfig


@dataclass(frozen=True)
class RooflinePoint:
    shape: GemmShape
    arithmetic_intensity: float
    compute_bound_gflops: float
    memory_bound_gflops: float

    @property
    def max_gflops(self) -> float:
        return min(self.compute_bound_gflops, self.memory_bound_gflops)

    @property
    def memory_bound(self) -> bool:
        return self.memory_bound_gflops < self.compute_bound_gflops


def roofline(shape: GemmShape, cluster: ClusterConfig, n_cores: int | None = None) -> RooflinePoint:
    """Roofline ceiling for ``shape`` on ``n_cores`` of the cluster."""
    cores = n_cores if n_cores is not None else cluster.n_cores
    peak = cores * cluster.core.peak_flops / 1e9
    ai = shape.arithmetic_intensity
    mem = ai * cluster.ddr_bandwidth / 1e9
    return RooflinePoint(
        shape=shape,
        arithmetic_intensity=ai,
        compute_bound_gflops=peak,
        memory_bound_gflops=mem,
    )

