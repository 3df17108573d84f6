"""Micro-kernel generation (the paper's Section IV-A).

:func:`~repro.kernels.generator.generate_kernel` turns a
:class:`~repro.kernels.spec.KernelSpec` into a scheduled, interpretable,
cycle-modeled :class:`~repro.kernels.generator.MicroKernel`;
:func:`~repro.kernels.tgemm_kernel.generate_tgemm_kernel` builds the
traditional fixed 6x96 kernel with implicit padding;
:class:`~repro.kernels.registry.KernelRegistry` memoizes generation.
"""
