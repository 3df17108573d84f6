"""Baselines: roofline model and the OpenBLAS-on-CPU model."""

import pytest

from repro.baselines.cpu_openblas import (
    kernel_efficiency,
    openblas_sgemm,
    threads_used,
)
from repro.baselines.roofline import roofline
from repro.core.shapes import GemmShape


class TestRoofline:
    def test_memory_bound_small_ai(self, cluster):
        pt = roofline(GemmShape(2**20, 8, 8), cluster)
        assert pt.memory_bound
        assert pt.max_gflops == pt.memory_bound_gflops

    def test_compute_bound_large_square(self, cluster):
        pt = roofline(GemmShape(8192, 8192, 8192), cluster)
        assert not pt.memory_bound
        assert pt.max_gflops == pytest.approx(cluster.peak_flops / 1e9)

    def test_scales_with_cores(self, cluster):
        big = GemmShape(8192, 8192, 8192)
        assert roofline(big, cluster, n_cores=4).max_gflops == pytest.approx(
            roofline(big, cluster, n_cores=8).max_gflops / 2
        )

    def test_ridge_point(self, cluster):
        ridge = cluster.n_cores * cluster.core.peak_flops / cluster.ddr_bandwidth
        assert ridge == pytest.approx(cluster.peak_flops / cluster.ddr_bandwidth)

    def test_uses_theoretical_bandwidth(self, cluster):
        """The paper computes the roofline with theoretical bandwidth."""
        shape = GemmShape(2**20, 8, 8)
        pt = roofline(shape, cluster)
        assert pt.memory_bound_gflops == pytest.approx(
            shape.arithmetic_intensity * 42.6
        )


class TestThreadsUsed:
    def test_big_problem_uses_all_cores(self, machine):
        assert threads_used(GemmShape(2**20, 96, 512), machine.cpu) == 16

    def test_tiny_mn_starves_threads(self, machine):
        assert threads_used(GemmShape(32, 32, 2**20), machine.cpu) < 16

    def test_single_thread_floor(self, machine):
        assert threads_used(GemmShape(8, 8, 2**20), machine.cpu) == 1


class TestKernelEfficiency:
    def test_deep_k_beats_shallow_k(self, machine):
        deep = kernel_efficiency(GemmShape(4096, 96, 4096), machine.cpu)
        shallow = kernel_efficiency(GemmShape(4096, 96, 32), machine.cpu)
        assert deep > shallow

    def test_tile_quantization_penalty(self, machine):
        # N=12 fills the nr=12 tile; N=13 wastes almost half of two tiles
        full = kernel_efficiency(GemmShape(4096, 12, 512), machine.cpu)
        ragged = kernel_efficiency(GemmShape(4096, 13, 512), machine.cpu)
        assert ragged < full

    def test_bounded_by_peak_fraction(self, machine):
        eff = kernel_efficiency(GemmShape(2**20, 96, 2**20), machine.cpu)
        assert eff <= machine.cpu.kernel_peak_fraction


class TestOpenblasModel:
    def test_large_regular_gemm_is_efficient(self, machine):
        """The premise of the paper: traditional BLAS does well on large
        regular shapes."""
        est = openblas_sgemm(GemmShape(8192, 8192, 8192), machine.cpu)
        assert est.efficiency > 0.6
        assert not est.memory_bound

    def test_irregular_shapes_are_inefficient(self, machine):
        for shape in [
            GemmShape(65536, 32, 32),
            GemmShape(32, 32, 65536),
            GemmShape(20480, 32, 20480),
        ]:
            est = openblas_sgemm(shape, machine.cpu)
            assert est.efficiency < 0.15

    def test_irregular_shapes_are_memory_bound(self, machine):
        est = openblas_sgemm(GemmShape(2**20, 32, 32), machine.cpu)
        assert est.memory_bound

    def test_gflops_consistent(self, machine):
        shape = GemmShape(4096, 96, 4096)
        est = openblas_sgemm(shape, machine.cpu)
        assert est.gflops == pytest.approx(shape.flops / est.seconds / 1e9)

    def test_seconds_decomposition(self, machine):
        est = openblas_sgemm(GemmShape(4096, 96, 4096), machine.cpu)
        assert est.seconds == pytest.approx(
            max(est.compute_seconds, est.memory_seconds) + est.overhead_seconds
        )

    def test_paper_fig7_regime(self, machine, cluster):
        """ftIMM's efficiency advantage on the three type sweeps must land
        in the paper's <= ~3.1x band (checked loosely; fig7 checks tightly)."""
        from repro.core.ftimm import ftimm_gemm

        ratios = []
        for m, n, k in [(65536, 96, 96), (32, 32, 65536), (20480, 32, 20480)]:
            ft = ftimm_gemm(m, n, k, timing="analytic")
            cpu = openblas_sgemm(GemmShape(m, n, k), machine.cpu)
            ratios.append(ft.efficiency / cpu.efficiency)
        assert max(ratios) > 1.0
        assert max(ratios) < 5.0
