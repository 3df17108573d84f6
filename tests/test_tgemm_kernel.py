"""TGEMM's fixed micro-kernel and its implicit-padding pathology."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.tgemm_kernel import TGEMM_M_S, TGEMM_N_A, generate_tgemm_kernel


class TestPadding:
    def test_cycles_independent_of_n(self, registry):
        """The fixed kernel always computes the full 96-wide tile: narrow
        outputs cost exactly as much as wide ones (problem 1 of III-C)."""
        cycles = {n: registry.tgemm(6, n, 512).cycles for n in (96, 64, 32, 8)}
        assert len(set(cycles.values())) == 1

    def test_efficiency_scales_with_n_over_96(self, registry):
        base = registry.tgemm(6, 96, 512).efficiency
        for n in (64, 32, 16):
            eff = registry.tgemm(6, n, 512).efficiency
            assert eff == pytest.approx(base * n / 96, rel=1e-6)

    def test_compute_width_always_96(self, registry):
        for n in (96, 50, 8):
            assert registry.tgemm(6, n, 512).compute_n == TGEMM_N_A

    def test_ftimm_kernel_beats_tgemm_kernel_on_narrow_n(self, registry):
        """The whole point of kernel auto-generation (Section IV-A)."""
        for n in (8, 16, 32, 64):
            assert (
                registry.ftimm(6, n, 512).efficiency
                > registry.tgemm(6, n, 512).efficiency
            )

    def test_parity_at_full_width(self, registry):
        """At N = 96 and deep K both kernels are near peak."""
        ft = registry.ftimm(6, 96, 512).efficiency
        tg = registry.tgemm(6, 96, 512).efficiency
        assert tg > 0.9
        assert abs(ft - tg) < 0.08


class TestStructure:
    def test_fixed_shape_limits(self, core):
        with pytest.raises(KernelError):
            generate_tgemm_kernel(7, 96, 512, core)
        with pytest.raises(KernelError):
            generate_tgemm_kernel(6, 97, 512, core)
        with pytest.raises(KernelError):
            generate_tgemm_kernel(0, 96, 512, core)

    def test_single_accumulator_copy(self, registry):
        kern = registry.tgemm(6, 96, 512)
        assert all(b.k_u == 1 for b in kern.blocks)

    def test_name_tag(self, registry):
        assert registry.tgemm(6, 96, 512).name == "tgemm"

    def test_remainder_rows_supported(self, registry):
        for m in (1, 2, 5):
            kern = registry.tgemm(m, 96, 64)
            assert kern.blocks[0].m_u == m


class TestCorrectness:
    @pytest.mark.parametrize("m,n,k", [(6, 96, 16), (6, 40, 19), (5, 40, 19), (1, 8, 4), (6, 33, 12)])
    def test_interpreter_equals_numpy(self, registry, m, n, k):
        kern = registry.tgemm(m, n, k)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        c0 = rng.standard_normal((m, n)).astype(np.float32)
        c_np = c0.copy()
        kern.apply(a, b, c_np)
        c_isa = c0.copy()
        kern.apply_isa(a, b, c_isa)
        np.testing.assert_allclose(c_isa, c_np, rtol=1e-4, atol=1e-4)
