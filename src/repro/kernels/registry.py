"""Kernel cache: in-memory memoization of generated kernels.

Generating a kernel involves modulo scheduling, which is the expensive part
of a GEMM *plan* (the paper generates assembly ahead of time and selects at
runtime).  Drivers request kernels through :class:`KernelRegistry`, which
memoizes by specification, so sweeping M in an experiment reuses kernels
instead of rescheduling per call.

Hit/miss counters are published to :mod:`repro.obs` under
``kernels/cache/*`` whenever a metrics registry is active.
"""

from __future__ import annotations

from ..hw.config import DspCoreConfig
from ..obs.registry import current as _obs_current
from .generator import MicroKernel, generate_kernel
from .spec import KernelSpec
from .tgemm_kernel import generate_tgemm_kernel


def _count(event: str) -> None:
    m = _obs_current()
    if m is not None:
        m.counter(f"kernels/cache/{event}").inc()


class KernelRegistry:
    """Memoized kernel generation for one core configuration."""

    def __init__(self, core: DspCoreConfig) -> None:
        self.core = core
        self._ftimm: dict[KernelSpec, MicroKernel] = {}
        self._tgemm: dict[tuple[int, int, int], MicroKernel] = {}

    def ftimm(
        self, m_s: int, n_a: int, k_a: int, dtype: str = "f32"
    ) -> MicroKernel:
        spec = KernelSpec(m_s, n_a, k_a, dtype)
        kernel = self._ftimm.get(spec)
        if kernel is None:
            _count("mem_miss")
            kernel = generate_kernel(spec, self.core)
            self._ftimm[spec] = kernel
        else:
            _count("mem_hit")
        return kernel

    def tgemm(self, m_rows: int, n: int, k: int) -> MicroKernel:
        key = (m_rows, n, k)
        kernel = self._tgemm.get(key)
        if kernel is None:
            _count("mem_miss")
            kernel = generate_tgemm_kernel(m_rows, n, k, self.core)
            self._tgemm[key] = kernel
        else:
            _count("mem_hit")
        return kernel

    def clear(self) -> None:
        self._ftimm.clear()
        self._tgemm.clear()


#: keyed by the *value* of the core config (frozen dataclass), not by
#: ``id()``: ids are reused after GC, which let a fresh config silently
#: inherit another machine's kernels.
_registries: dict[DspCoreConfig, KernelRegistry] = {}


def registry_for(core: DspCoreConfig) -> KernelRegistry:
    """Process-wide registry per core configuration (keyed by value)."""
    reg = _registries.get(core)
    if reg is None:
        reg = KernelRegistry(core)
        _registries[core] = reg
    return reg
