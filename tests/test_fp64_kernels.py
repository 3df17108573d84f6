"""FP64 micro-kernel extension: lanes, ceilings, correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.isa.instructions import Opcode
from repro.isa.program import opcode_histogram
from repro.kernels.generator import generate_kernel
from repro.kernels.spec import KernelSpec


class TestSpec:
    def test_f64_lane_count(self):
        spec = KernelSpec(6, 32, 64, "f64")
        assert spec.lanes == 16
        assert spec.v_n == 2
        assert spec.padded_n == 32

    def test_f64_max_width_is_48(self):
        KernelSpec(6, 48, 64, "f64")
        with pytest.raises(KernelError):
            KernelSpec(6, 49, 64, "f64")

    def test_unknown_dtype_rejected(self):
        with pytest.raises(KernelError):
            KernelSpec(6, 32, 64, "f16")

    def test_np_dtype(self):
        assert KernelSpec(6, 32, 64, "f64").np_dtype == np.float64
        assert KernelSpec(6, 32, 64).np_dtype == np.float32

    def test_str_marks_precision(self):
        assert str(KernelSpec(6, 32, 64, "f64")).endswith("/f64")
        assert "/" not in str(KernelSpec(6, 32, 64))

    def test_distinct_specs_per_dtype(self):
        assert KernelSpec(6, 32, 64, "f64") != KernelSpec(6, 32, 64, "f32")


class TestGeneration:
    def test_f64_uses_sldd_not_pairs(self, core):
        kern = generate_kernel(KernelSpec(6, 32, 512, "f64"), core)
        hist = opcode_histogram(kern.program.blocks[0].body)
        assert hist.get(Opcode.SLDD, 0) > 0
        assert Opcode.SLDW not in hist
        assert Opcode.SVBCAST2 not in hist
        assert Opcode.SBALE2H not in hist

    def test_f64_full_rate_at_three_vectors(self, registry):
        kern = registry.ftimm(8, 48, 512, dtype="f64")
        assert kern.efficiency > 0.93

    def test_f64_broadcast_ceiling_two_vectors(self, registry):
        for m in (4, 6, 10, 14):
            eff = registry.ftimm(m, 32, 512, dtype="f64").efficiency
            assert eff <= 2 / 3 + 1e-9

    def test_f64_broadcast_ceiling_one_vector(self, registry):
        for m in (4, 8, 12):
            eff = registry.ftimm(m, 16, 512, dtype="f64").efficiency
            assert eff <= 1 / 3 + 1e-9

    def test_f64_gflops_relative_to_f64_peak(self, registry, core):
        kern = registry.ftimm(8, 48, 512, dtype="f64")
        f64_peak = core.n_vector_fmac * 16 * core.flops_per_lane * core.clock_hz
        assert kern.gflops <= f64_peak / 1e9
        assert kern.peak_flops_per_cycle == core.n_vector_fmac * 16 * 2

    def test_f32_unchanged_by_extension(self, registry):
        """The FP32 path must still match the paper's Fig. 3 peaks."""
        assert registry.ftimm(12, 96, 512).efficiency > 0.93
        assert registry.ftimm(14, 32, 512).efficiency <= 2 / 3


class TestCorrectness:
    @pytest.mark.parametrize(
        "m,n,k", [(8, 48, 32), (6, 32, 16), (4, 16, 8), (3, 40, 7), (1, 5, 3)]
    )
    def test_interpreter_equals_numpy_f64(self, registry, m, n, k):
        kern = registry.ftimm(m, n, k, dtype="f64")
        rng = np.random.default_rng(0)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c0 = rng.standard_normal((m, n))
        c_np = c0.copy()
        kern.apply(a, b, c_np)
        c_isa = c0.copy()
        kern.apply_isa(a, b, c_isa)
        np.testing.assert_allclose(c_isa, c_np, rtol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 48),
        k=st.integers(1, 16),
        seed=st.integers(0, 99),
    )
    def test_property_f64_generated_code_is_matmul(self, m, n, k, seed):
        from repro.hw.config import default_machine
        from repro.kernels.registry import registry_for

        kern = registry_for(default_machine().cluster.core).ftimm(
            m, n, k, dtype="f64"
        )
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        expected = c + a @ b
        kern.apply_isa(a, b, c)
        np.testing.assert_allclose(c, expected, rtol=1e-11, atol=1e-11)


class TestExperiment:
    def test_ext_fp64_claims_hold(self):
        from repro.experiments import ext_fp64

        for result in ext_fp64.run():
            for claim in result.claims:
                assert claim.holds, f"{result.exp_id}: {claim.name}"
