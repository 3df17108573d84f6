"""Convenience facade over the library's main entry points.

    >>> import repro
    >>> result = repro.gemm(20480, 32, 20480)         # timing-only ftIMM
    >>> result.gflops, result.strategy
    >>> kernel = repro.generate_kernel(8, 96, 512)     # one micro-kernel
    >>> print(kernel.pipeline_table())
"""

from __future__ import annotations

from .core.autotune import AutotuneResult, autotune
from .core.batched import (
    BatchedGemmResult,
    GroupedGemmResult,
    batched_gemm,
    grouped_gemm,
)
from .core.ftimm import GemmResult, ftimm_gemm, gemm, tgemm_gemm
from .core.hetero import HeteroResult, hetero_gemm
from .core.plan_search import SearchStats, plan_bound
from .core.multi_cluster import MultiClusterResult, multi_cluster_gemm
from .core.shapes import GemmShape
from .faults import (
    ChaosSummary,
    CoreFault,
    DegradationWindow,
    FaultPlan,
    FaultReport,
    chaos_sweep,
)
from .hw.config import MachineConfig, default_machine
from .kernels.generator import MicroKernel
from .kernels.registry import registry_for
from .kernels.spec import KernelSpec
from .parallel import WorkerPool, worker_pool
from .analysis import (
    CriticalPathDiff,
    CriticalPathReport,
    critical_path,
    diff_critical_paths,
)
from .obs import (
    Histogram,
    MetricsRegistry,
    ProfileScope,
    TraceSpan,
    Tracer,
    collecting,
    tracing,
)
from .serve import (
    DegradePolicy,
    DegradeReport,
    Gateway,
    GemmRequest,
    HealthPolicy,
    PlacementManager,
    PlacementReport,
    PriorityClass,
    ServeChaosReport,
    ServeConfig,
    ServeEngine,
    ServeReport,
    SloPolicy,
    SloReport,
    SweepResult,
    chaos_serve,
    gateway_replay,
    make_requests,
    monitor,
    serve,
    sweep,
)


def generate_kernel(
    m_s: int, n_a: int, k_a: int, machine: MachineConfig | None = None
) -> MicroKernel:
    """Generate (or fetch from cache) one ftIMM micro-kernel."""
    core = (machine or default_machine()).cluster.core
    return registry_for(core).ftimm(m_s, n_a, k_a)


def classify(m: int, n: int, k: int) -> str:
    """The paper's irregular-shape taxonomy for an M x N x K GEMM."""
    return GemmShape(m, n, k).classify().value


__all__ = [
    "AutotuneResult",
    "BatchedGemmResult",
    "ChaosSummary",
    "CoreFault",
    "CriticalPathDiff",
    "CriticalPathReport",
    "critical_path",
    "diff_critical_paths",
    "DegradationWindow",
    "DegradePolicy",
    "DegradeReport",
    "HealthPolicy",
    "PriorityClass",
    "ServeChaosReport",
    "chaos_serve",
    "FaultPlan",
    "FaultReport",
    "GroupedGemmResult",
    "batched_gemm",
    "chaos_sweep",
    "grouped_gemm",
    "HeteroResult",
    "hetero_gemm",
    "Gateway",
    "gateway_replay",
    "GemmRequest",
    "GemmResult",
    "GemmShape",
    "Histogram",
    "MultiClusterResult",
    "PlacementManager",
    "PlacementReport",
    "SearchStats",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "SloPolicy",
    "SloReport",
    "SweepResult",
    "TraceSpan",
    "Tracer",
    "WorkerPool",
    "autotune",
    "multi_cluster_gemm",
    "plan_bound",
    "worker_pool",
    "KernelSpec",
    "MachineConfig",
    "MetricsRegistry",
    "MicroKernel",
    "ProfileScope",
    "classify",
    "collecting",
    "default_machine",
    "ftimm_gemm",
    "gemm",
    "generate_kernel",
    "make_requests",
    "monitor",
    "serve",
    "sweep",
    "tgemm_gemm",
    "tracing",
]
