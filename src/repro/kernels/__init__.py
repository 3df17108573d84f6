"""Micro-kernel generation (the paper's Section IV-A).

:func:`~repro.kernels.generator.generate_kernel` turns a
:class:`~repro.kernels.spec.KernelSpec` into a scheduled, interpretable,
cycle-modeled :class:`~repro.kernels.generator.MicroKernel`;
:func:`~repro.kernels.tgemm_kernel.generate_tgemm_kernel` builds the
traditional fixed 6x96 kernel with implicit padding;
:class:`~repro.kernels.registry.KernelRegistry` memoizes generation.
"""

from .generator import (
    BlockInfo,
    MicroKernel,
    generate_kernel,
    max_m_u,
    select_tiling,
)
from .registry import KernelRegistry, registry_for
from .spec import KernelSpec, MAX_M_S, MAX_N_A
from .tgemm_kernel import TGEMM_M_S, TGEMM_N_A, generate_tgemm_kernel

__all__ = [
    "BlockInfo",
    "KernelRegistry",
    "KernelSpec",
    "MAX_M_S",
    "MAX_N_A",
    "MicroKernel",
    "TGEMM_M_S",
    "TGEMM_N_A",
    "generate_kernel",
    "generate_tgemm_kernel",
    "max_m_u",
    "registry_for",
    "select_tiling",
]
