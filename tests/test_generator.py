"""Micro-kernel auto-generation: tiling rules, budgets, cycle model, and —
most importantly — functional equivalence of the generated instruction
stream with NumPy matmul (property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernels.generator import generate_kernel, max_m_u, select_tiling
from repro.kernels.spec import KernelSpec


class TestTilingRules:
    def test_wide_kernel_uses_single_accumulator_copy(self, core):
        m_u, k_u = select_tiling(8, 3, 512, core)
        assert k_u == 1
        assert m_u == 8

    def test_wide_kernel_short_rows_raise_k_u(self, core):
        """m_s < t_fma: not enough rows to hide the FMAC latency."""
        _m_u, k_u = select_tiling(2, 3, 512, core)
        assert k_u > 1

    def test_narrow_kernels_use_k_u_pairs(self, core):
        for v_n in (1, 2):
            _m_u, k_u = select_tiling(6, v_n, 512, core)
            assert k_u >= 2

    def test_k_u_clamped_for_tiny_k(self, core):
        _m_u, k_u = select_tiling(6, 3, 1, core)
        assert k_u == 1 or k_u <= 2

    def test_register_budget_formula(self, core):
        # v_n=3, k_u=1: (60 - 3) / 4 = 14 rows max
        assert max_m_u(3, 1, core) == 14
        # v_n=2, k_u=2: (60 - 4) / 6 = 9
        assert max_m_u(2, 2, core) == 9
        # v_n=1, k_u=2: (60 - 2) / 4 = 14
        assert max_m_u(1, 2, core) == 14

    def test_m_u_respects_budget(self, core):
        m_u, k_u = select_tiling(64, 2, 512, core)
        assert m_u <= max_m_u(2, k_u, core)


class TestGeneratedStructure:
    def test_registers_within_budget(self, registry, core):
        for spec in [(8, 96, 64), (6, 64, 64), (14, 32, 64), (9, 64, 64)]:
            kern = registry.ftimm(*spec)
            _sregs, vregs = kern.registers_used()
            assert vregs <= core.n_vector_regs

    def test_row_blocks_cover_m_s(self, registry):
        kern = registry.ftimm(16, 96, 64)
        assert sum(b.m_u for b in kern.blocks) == 16
        assert len(kern.blocks) == 2  # 14 + 2

    def test_ii_matches_paper_table1(self, registry):
        kern = registry.ftimm(8, 96, 512)
        assert kern.ii == 8  # II = m_u when m_s >= t_fma

    def test_ii_matches_paper_table2(self, registry):
        kern = registry.ftimm(6, 64, 512)
        assert kern.ii == 8  # 24 FMAs over 3 pipes

    def test_k_padding(self, registry):
        kern = registry.ftimm(6, 64, 33)  # k_u = 2 -> padded to 34
        assert kern.compute_k == 34

    def test_forced_tiling_honored(self, core):
        kern = generate_kernel(
            KernelSpec(6, 96, 64), core, force_m_u=6, force_k_u=1,
            allow_block_adjust=False,
        )
        assert kern.blocks[0].m_u == 6
        assert kern.blocks[0].k_u == 1

    def test_bad_k_u_rejected(self, core):
        with pytest.raises(KernelError):
            generate_kernel(KernelSpec(6, 96, 64), core, force_k_u=3)

    def test_over_budget_tiling_rejected(self, core):
        with pytest.raises(KernelError):
            generate_kernel(KernelSpec(32, 96, 64), core, force_m_u=32, force_k_u=2)

    def test_pad_n_below_n_rejected(self, core):
        with pytest.raises(KernelError):
            generate_kernel(KernelSpec(6, 96, 64), core, pad_n_to=64)


class TestCycleModel:
    def test_cycles_grow_with_k(self, registry):
        assert registry.ftimm(8, 96, 512).cycles > registry.ftimm(8, 96, 64).cycles

    def test_efficiency_peaks_match_paper(self, registry):
        """The headline Fig. 3 peaks, asserted coarsely here (the fig3
        experiment asserts tightly)."""
        assert registry.ftimm(12, 96, 512).efficiency > 0.93
        assert registry.ftimm(12, 64, 512).efficiency > 0.90
        assert 0.55 < registry.ftimm(14, 32, 512).efficiency < 2 / 3

    def test_broadcast_ceiling_for_narrow_kernels(self, registry):
        """No n_a <= 32 kernel may beat the 66.7% broadcast bound."""
        for m in (4, 8, 12, 14):
            assert registry.ftimm(m, 32, 512).efficiency <= 2 / 3 + 1e-9

    def test_gflops_consistent_with_cycles(self, registry, core):
        kern = registry.ftimm(8, 96, 512)
        expected = kern.flops / (kern.cycles / core.clock_hz) / 1e9
        assert kern.gflops == pytest.approx(expected)

    def test_apply_shape_check(self, registry):
        kern = registry.ftimm(4, 32, 16)
        with pytest.raises(KernelError):
            kern.apply(
                np.zeros((4, 17), np.float32),
                np.zeros((16, 32), np.float32),
                np.zeros((4, 32), np.float32),
            )


def check_kernel_correct(kern, seed=0):
    m, n, k = kern.spec.m_s, kern.spec.n_a, kern.spec.k_a
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    c0 = rng.standard_normal((m, n)).astype(np.float32)
    c_np = c0.copy()
    kern.apply(a, b, c_np)
    c_isa = c0.copy()
    kern.apply_isa(a, b, c_isa)
    np.testing.assert_allclose(c_isa, c_np, rtol=1e-4, atol=1e-4)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize(
        "m,n,k",
        [(8, 96, 32), (6, 64, 16), (14, 32, 16), (1, 1, 1), (16, 96, 32),
         (3, 48, 7), (2, 96, 9), (9, 80, 24), (5, 17, 11), (12, 33, 8)],
    )
    def test_interpreter_equals_numpy(self, registry, m, n, k):
        check_kernel_correct(registry.ftimm(m, n, k))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 16),
        n=st.integers(1, 96),
        k=st.integers(1, 24),
        seed=st.integers(0, 99),
    )
    def test_property_generated_code_is_matmul(self, m, n, k, seed):
        """The auto-generated instruction stream, executed on the register
        machine, computes exactly C += A @ B for arbitrary shapes."""
        from repro.hw.config import default_machine

        core = default_machine().cluster.core
        from repro.kernels.registry import registry_for

        kern = registry_for(core).ftimm(m, n, k)
        check_kernel_correct(kern, seed)
