"""repro — ftIMM on a simulated FT-m7032: irregular-shaped GEMM for
multi-core DSPs (reproduction of Yin et al., IEEE CLUSTER 2022).

Quick start::

    import repro

    # dynamic strategy + block selection, modeled timing
    r = repro.ftimm_gemm(20480, 32, 20480)
    print(r.strategy, r.gflops)

    # with real operands: C += A @ B is computed (and verified in tests)
    import numpy as np
    a = np.random.rand(4096, 256).astype(np.float32)
    b = np.random.rand(256, 32).astype(np.float32)
    c = np.zeros((4096, 32), dtype=np.float32)
    repro.ftimm_gemm(4096, 32, 256, a=a, b=b, c=c)

    # inspect an auto-generated micro-kernel (Tables I-III style)
    print(repro.generate_kernel(6, 64, 512).pipeline_table())

Package map:

* :mod:`repro.hw`        — FT-m7032 machine model + DES substrate
* :mod:`repro.isa`       — symbolic ISA, modulo scheduler, interpreter
* :mod:`repro.kernels`   — micro-kernel auto-generation (Section IV-A)
* :mod:`repro.core`      — ftIMM: blocking, tuning, drivers (IV-B/IV-C)
* :mod:`repro.executor`  — functional / event-driven / analytic execution
* :mod:`repro.baselines` — roofline + OpenBLAS-on-CPU models
* :mod:`repro.serve`     — online serving of GEMM request streams
* :mod:`repro.obs`       — metrics registry, profiling scopes, run-logs
* :mod:`repro.analysis`  — tables, charts, bottleneck attribution
* :mod:`repro.workloads` — K-means, CNN im2col, FEM generators
* :mod:`repro.experiments` — one driver per table/figure of the paper
"""

from .core.autotune import AutotuneResult, autotune
from .core.batched import GroupedGemmResult, grouped_gemm
from .core.ftimm import GemmResult, ftimm_gemm, gemm, tgemm_gemm
from .core.hetero import HeteroResult, hetero_gemm
from .core.multi_cluster import MultiClusterResult, multi_cluster_gemm
from .core.plan_search import SearchStats, plan_bound
from .core.shapes import GemmShape
from .errors import (
    AllocationError,
    CapacityError,
    ConfigError,
    FaultError,
    IsaError,
    KernelError,
    OverloadError,
    PlanError,
    ReproError,
    ScheduleError,
    ShapeError,
    SimulationError,
)
from .faults.chaos import ChaosSummary, chaos_sweep
from .faults.inject import FaultReport
from .faults.plan import CoreFault, DegradationWindow, FaultPlan
from .hw.config import MachineConfig, default_machine
from .kernels.generator import MicroKernel
from .kernels.registry import registry_for
from .kernels.spec import KernelSpec

__version__ = "1.0.0"


def generate_kernel(
    m_s: int, n_a: int, k_a: int, machine: MachineConfig | None = None
) -> MicroKernel:
    """Generate (or fetch from cache) one ftIMM micro-kernel."""
    core = (machine or default_machine()).cluster.core
    return registry_for(core).ftimm(m_s, n_a, k_a)


def classify(m: int, n: int, k: int) -> str:
    """The paper's irregular-shape taxonomy for an M x N x K GEMM."""
    return GemmShape(m, n, k).classify().value


#: the GEMM library; serving, observability and analysis are listed by
#: their own packages (``repro.serve``, ``repro.obs``, ``repro.analysis``)
__all__ = [
    "AllocationError",
    "AutotuneResult",
    "CapacityError",
    "ChaosSummary",
    "ConfigError",
    "CoreFault",
    "DegradationWindow",
    "FaultError",
    "FaultPlan",
    "FaultReport",
    "GemmResult",
    "GemmShape",
    "GroupedGemmResult",
    "HeteroResult",
    "IsaError",
    "KernelError",
    "KernelSpec",
    "MachineConfig",
    "MicroKernel",
    "MultiClusterResult",
    "OverloadError",
    "PlanError",
    "ReproError",
    "ScheduleError",
    "SearchStats",
    "ShapeError",
    "SimulationError",
    "__version__",
    "autotune",
    "chaos_sweep",
    "classify",
    "default_machine",
    "ftimm_gemm",
    "gemm",
    "generate_kernel",
    "grouped_gemm",
    "hetero_gemm",
    "multi_cluster_gemm",
    "plan_bound",
    "tgemm_gemm",
]
