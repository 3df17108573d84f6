"""Whole-pipeline behaviour under modified hardware.

The reproduction is a *model*: changing a hardware parameter must ripple
through kernel generation, blocking, and timing in the physically
expected direction — and never break numerical correctness.  These tests
run the full stack on perturbed machines.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.blocking import MPlan, adjust_m_plan
from repro.core.ftimm import ftimm_gemm
from repro.core.shapes import GemmShape
from repro.hw.config import (
    ClusterConfig,
    DmaConfig,
    DspCoreConfig,
    LatencyConfig,
    MachineConfig,
)
from repro.kernels.generator import generate_kernel
from repro.kernels.registry import KernelRegistry
from repro.kernels.spec import KernelSpec

from conftest import assert_gemm_close, make_operands


def make_machine(**core_overrides) -> MachineConfig:
    core = dataclasses.replace(DspCoreConfig(), **core_overrides)
    cluster = dataclasses.replace(ClusterConfig(), core=core)
    return MachineConfig(cluster=cluster).validate()


def machine_with_cluster(**cluster_overrides) -> MachineConfig:
    cluster = dataclasses.replace(ClusterConfig(), **cluster_overrides)
    return MachineConfig(cluster=cluster).validate()


class TestSmallScratchpads:
    def test_half_am_shrinks_blocks_and_stays_correct(self):
        machine = make_machine(am_bytes=384 * 1024)
        shape = GemmShape(600, 32, 400)
        plan = adjust_m_plan(MPlan(k_a=256), shape, machine.cluster)
        assert plan.am_bytes() <= 384 * 1024
        data, ref = make_operands(shape, seed=1)
        ftimm_gemm(
            shape.m, shape.n, shape.k, machine=machine,
            a=data.a, b=data.b, c=data.c, timing="none",
        )
        assert_gemm_close(data.c, ref, shape.k)

    def test_tiny_sm_caps_kernel_rows(self):
        machine = make_machine(sm_bytes=8 * 1024)
        shape = GemmShape(2048, 32, 512)
        plan = adjust_m_plan(MPlan(), shape, machine.cluster)
        assert plan.sm_bytes() <= 8 * 1024

    def test_paper_defaults_reject_smaller_am(self):
        machine = make_machine(am_bytes=512 * 1024)
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            MPlan().validate(machine.cluster)


class TestLatencyChanges:
    def test_higher_fma_latency_hurts_short_kernels_only(self):
        slow = dataclasses.replace(LatencyConfig(), t_fma=8)
        machine = make_machine(latencies=slow)
        core = machine.cluster.core
        # a saturated kernel stays near peak (II is resource-bound)
        big = generate_kernel(KernelSpec(12, 96, 512), core)
        assert big.efficiency > 0.9
        # a 1-row naive kernel cannot hide 8 cycles with 3 FMAs in flight
        naive = generate_kernel(
            KernelSpec(1, 96, 512), core,
            force_m_u=1, force_k_u=1, allow_block_adjust=False,
        )
        assert naive.ii >= 8  # recurrence-bound
        auto = generate_kernel(KernelSpec(1, 96, 512), core)
        assert auto.efficiency > naive.efficiency

    def test_kernels_still_correct_with_odd_latencies(self):
        weird = dataclasses.replace(
            LatencyConfig(), t_fma=7, t_vldw=5, t_bcast=3, t_sld=4
        )
        machine = make_machine(latencies=weird)
        kern = generate_kernel(KernelSpec(6, 64, 32), machine.cluster.core)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 32)).astype(np.float32)
        b = rng.standard_normal((32, 64)).astype(np.float32)
        c1 = np.zeros((6, 64), np.float32)
        c2 = np.zeros((6, 64), np.float32)
        kern.apply(a, b, c1)
        kern.apply_isa(a, b, c2)
        np.testing.assert_allclose(c1, c2, rtol=1e-4, atol=1e-4)


class TestComputeThroughputChanges:
    def test_fewer_fmac_pipes_lower_gflops_not_efficiency_units(self):
        machine = make_machine(n_vector_fmac=1)
        core = machine.cluster.core
        assert core.peak_flops == pytest.approx(345.6e9 / 3)
        kern = generate_kernel(KernelSpec(8, 96, 512), core)
        # efficiency is relative to the (smaller) peak: still high
        assert kern.efficiency > 0.85
        assert kern.gflops < 130

    def test_faster_clock_scales_gflops(self):
        fast = make_machine(clock_hz=3.6e9)
        slow = make_machine(clock_hz=1.8e9)
        kf = generate_kernel(KernelSpec(8, 96, 512), fast.cluster.core)
        ks = generate_kernel(KernelSpec(8, 96, 512), slow.cluster.core)
        assert kf.gflops == pytest.approx(2 * ks.gflops)
        assert kf.cycles == ks.cycles  # cycle counts are clock-independent


class TestBandwidthChanges:
    def test_double_ddr_speeds_memory_bound_shapes(self):
        fast = machine_with_cluster(ddr_bandwidth=85.2e9)
        base = MachineConfig().validate()
        shape = (2**20, 32, 32)  # memory-bound type 1
        t_fast = ftimm_gemm(*shape, machine=fast, timing="analytic").seconds
        t_base = ftimm_gemm(*shape, machine=base, timing="analytic").seconds
        assert t_fast < t_base * 0.75

    def test_compute_bound_shape_ignores_ddr(self):
        """On 8 cores every N <= 96 shape is memory-bound (AI <= ~48 vs a
        2.7 TFLOPS peak), so the compute-bound check runs on one core."""
        fast = machine_with_cluster(ddr_bandwidth=85.2e9)
        base = MachineConfig().validate()
        shape = (20480, 96, 20480)  # AI ~ 48 >> single-core ridge (~11)
        t_fast = ftimm_gemm(
            *shape, machine=fast, cores=1, timing="analytic"
        ).seconds
        t_base = ftimm_gemm(
            *shape, machine=base, cores=1, timing="analytic"
        ).seconds
        assert t_fast > t_base * 0.9  # compute-bound: ~no benefit

    def test_dma_overheads_hurt_skinny_rows(self):
        costly = machine_with_cluster(
            dma=dataclasses.replace(DmaConfig(), row_overhead_bytes=512)
        )
        base = MachineConfig().validate()
        shape = (2**18, 8, 8)  # 32-byte rows: overhead dominates
        t_costly = ftimm_gemm(*shape, machine=costly, timing="analytic").seconds
        t_base = ftimm_gemm(*shape, machine=base, timing="analytic").seconds
        assert t_costly > 2 * t_base


class TestRegisterFileChanges:
    def test_smaller_register_file_narrows_m_u(self):
        small = make_machine(n_vector_regs=32)
        big = make_machine(n_vector_regs=64)
        reg_small = KernelRegistry(small.cluster.core)
        reg_big = KernelRegistry(big.cluster.core)
        k_small = reg_small.ftimm(14, 96, 512)
        k_big = reg_big.ftimm(14, 96, 512)
        assert k_small.blocks[0].m_u < k_big.blocks[0].m_u
        _s, vregs = k_small.registers_used()
        assert vregs <= 32

    def test_smaller_register_file_still_correct(self):
        small = make_machine(n_vector_regs=24)
        kern = KernelRegistry(small.cluster.core).ftimm(10, 96, 16)
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 16)).astype(np.float32)
        b = rng.standard_normal((16, 96)).astype(np.float32)
        c1 = np.zeros((10, 96), np.float32)
        c2 = np.zeros((10, 96), np.float32)
        kern.apply(a, b, c1)
        kern.apply_isa(a, b, c2)
        np.testing.assert_allclose(c1, c2, rtol=1e-4, atol=1e-4)
