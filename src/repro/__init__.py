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
* :mod:`repro.obs`       — metrics registry, profiling scopes, run-logs
* :mod:`repro.analysis`  — tables, charts, bottleneck attribution
* :mod:`repro.workloads` — K-means, CNN im2col, FEM generators
* :mod:`repro.experiments` — one driver per table/figure of the paper
"""

from . import api
from .api import *  # noqa: F401,F403 -- the public surface, listed once
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

__version__ = "1.0.0"

__all__ = [
    "AllocationError",
    "CapacityError",
    "ConfigError",
    "FaultError",
    "IsaError",
    "KernelError",
    "OverloadError",
    "PlanError",
    "ReproError",
    "ScheduleError",
    "ShapeError",
    "SimulationError",
    "__version__",
    *api.__all__,
]
