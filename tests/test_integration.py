"""Cross-cutting integration scenarios.

These tests exercise relationships *between* components that no unit test
sees: strategy equivalence, accumulation semantics, plan determinism,
physical-consistency checks of the timing models.
"""

import numpy as np
import pytest

from repro.core.blocking import MPlan, adjust_m_plan
from repro.core.ftimm import ftimm_gemm, tgemm_gemm
from repro.core.parallel_k import build_parallel_k
from repro.core.parallel_m import build_parallel_m
from repro.core.shapes import GemmShape
from repro.core.tgemm import build_tgemm
from repro.executor.functional import run_functional
from repro.executor.timed import run_timed

from conftest import assert_gemm_close, kernel_cycles_by_core, make_operands


class TestStrategyEquivalence:
    """All three algorithms compute the same mathematics."""

    @pytest.mark.parametrize("m,n,k", [(160, 32, 300), (96, 48, 96), (33, 7, 131)])
    def test_three_drivers_agree(self, cluster, registry, m, n, k):
        shape = GemmShape(m, n, k)
        results = []
        for builder in (build_tgemm, build_parallel_m, build_parallel_k):
            data, ref = make_operands(shape, seed=9)
            ex = builder(shape, cluster, registry=registry, bindable=True)
            with ex.ctx.binding(data):
                run_functional(ex)
            assert_gemm_close(data.c, ref, k)
            results.append(data.c.copy())
        np.testing.assert_allclose(results[0], results[1], rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(results[0], results[2], rtol=1e-4, atol=1e-4)

    def test_forced_strategies_agree_through_api(self):
        shape = GemmShape(600, 32, 600)
        outs = {}
        for strategy in ("m", "k"):
            data, ref = make_operands(shape, seed=10)
            ftimm_gemm(
                shape.m, shape.n, shape.k,
                a=data.a, b=data.b, c=data.c,
                force_strategy=strategy, timing="none",
            )
            assert_gemm_close(data.c, ref, shape.k)
            outs[strategy] = data.c


class TestAccumulationSemantics:
    def test_two_calls_accumulate_twice(self):
        shape = GemmShape(200, 16, 64)
        data, _ref = make_operands(shape, seed=11)
        c0 = data.c.copy()
        for _ in range(2):
            ftimm_gemm(
                shape.m, shape.n, shape.k,
                a=data.a, b=data.b, c=data.c, timing="none",
            )
        expected = (
            c0.astype(np.float64)
            + 2.0 * (data.a.astype(np.float64) @ data.b.astype(np.float64))
        ).astype(np.float32)
        np.testing.assert_allclose(data.c, expected, rtol=1e-3, atol=1e-3)

    def test_zero_c_gives_pure_product(self):
        shape = GemmShape(100, 32, 50)
        data, _ = make_operands(shape, seed=12)
        data.c[:] = 0.0
        tgemm_gemm(shape.m, shape.n, shape.k, a=data.a, b=data.b, c=data.c,
                   timing="none")
        assert_gemm_close(data.c, (data.a @ data.b), shape.k)

    def test_operands_a_b_never_mutated(self):
        shape = GemmShape(100, 32, 50)
        data, _ = make_operands(shape, seed=13)
        a0, b0 = data.a.copy(), data.b.copy()
        ftimm_gemm(shape.m, shape.n, shape.k, a=data.a, b=data.b, c=data.c,
                   timing="none")
        np.testing.assert_array_equal(data.a, a0)
        np.testing.assert_array_equal(data.b, b0)


class TestPlanDeterminism:
    def test_same_inputs_same_plan(self, cluster, registry):
        shape = GemmShape(1000, 32, 500)
        ex1 = build_parallel_m(shape, cluster, registry=registry)
        ex2 = build_parallel_m(shape, cluster, registry=registry)
        assert ex1.n_ops == ex2.n_ops
        for ops1, ops2 in zip(ex1.core_ops, ex2.core_ops):
            for o1, o2 in zip(ops1, ops2):
                assert o1.kind == o2.kind
                assert o1.deps == o2.deps
                assert o1.cycles == o2.cycles

    def test_same_inputs_same_time(self):
        t1 = ftimm_gemm(4096, 32, 256, timing="des").seconds
        t2 = ftimm_gemm(4096, 32, 256, timing="des").seconds
        assert t1 == t2


class TestPhysicalConsistency:
    """Timing results must obey physics: bounds from bandwidth and peak."""

    @pytest.mark.parametrize(
        "m,n,k", [(8192, 32, 512), (2048, 96, 2048), (32, 32, 32768)]
    )
    def test_never_beats_compute_peak(self, cluster, m, n, k):
        r = ftimm_gemm(m, n, k, timing="des")
        assert r.gflops * 1e9 <= cluster.peak_flops

    @pytest.mark.parametrize("m,n,k", [(8192, 32, 512), (32, 32, 32768)])
    def test_never_beats_memory_bound(self, cluster, m, n, k):
        """Useful GFLOPS cannot exceed AI x achieved DDR bandwidth."""
        shape = GemmShape(m, n, k)
        r = ftimm_gemm(m, n, k, timing="des")
        achieved = cluster.ddr_bandwidth * cluster.dma.ddr_efficiency
        bound = shape.arithmetic_intensity * achieved
        assert r.gflops * 1e9 <= bound * 1.001

    def test_des_time_at_least_kernel_critical_path(self, cluster, registry):
        shape = GemmShape(4096, 32, 256)
        plan = adjust_m_plan(MPlan(), shape, cluster)
        ex = build_parallel_m(shape, cluster, plan=plan, adjust=False,
                              registry=registry)
        r = run_timed(ex)
        busiest = max(kernel_cycles_by_core(ex)) / cluster.core.clock_hz
        assert r.seconds >= busiest

    def test_single_core_slower_than_eight(self):
        r1 = ftimm_gemm(20480, 32, 512, cores=1, timing="analytic")
        r8 = ftimm_gemm(20480, 32, 512, cores=8, timing="analytic")
        assert r1.seconds > r8.seconds

    def test_more_work_takes_longer(self):
        small = ftimm_gemm(8192, 32, 256, timing="analytic").seconds
        large = ftimm_gemm(32768, 32, 256, timing="analytic").seconds
        assert large > 2 * small


class TestKernelReuse:
    def test_sweep_reuses_generated_kernels(self, core):
        """A GEMM sweep over M must not regenerate kernels per call."""
        from repro.kernels.registry import KernelRegistry

        registry = KernelRegistry(core)
        cluster_shapes = [(4096, 32, 512), (8192, 32, 512), (12288, 32, 512)]
        from repro.core.parallel_m import build_parallel_m as build
        from repro.hw.config import default_machine

        cluster = default_machine().cluster
        for m, n, k in cluster_shapes:
            build(GemmShape(m, n, k), cluster, registry=registry)
        # same adjusted blocks across the sweep -> a handful of kernels
        assert registry.generated_count <= 6
