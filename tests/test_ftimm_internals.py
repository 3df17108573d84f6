"""Internals of the top-level entry point: mode selection, op estimation,
result plumbing."""

import pytest

from repro.core.ftimm import DES_OP_LIMIT, estimate_ops, ftimm_gemm, tgemm_gemm
from repro.core.shapes import GemmShape
from repro.core.tuner import tune
from repro.hw.config import default_machine


class TestOpEstimation:
    def test_estimate_tracks_real_op_count(self, cluster):
        """The auto-mode heuristic must be the right order of magnitude."""
        from repro.core.ftimm import lowered_program

        for m, n, k in [(2000, 32, 512), (32, 32, 16384), (1024, 96, 1024)]:
            shape = GemmShape(m, n, k)
            decision = tune(shape, cluster)
            estimate = estimate_ops(shape, decision.strategy, decision.plan)
            actual = lowered_program(shape, cluster, decision).n_ops
            assert actual / 4 <= estimate <= actual * 4, (m, n, k)

    def test_auto_boundary_consistency(self):
        """auto == des below the limit, analytic above it."""
        small = ftimm_gemm(2000, 32, 64, timing="auto")
        assert small.timing_mode == "des"
        huge = ftimm_gemm(2**21, 32, 32, timing="auto")
        assert huge.timing_mode == "analytic"

    def test_limit_is_sane(self):
        assert 10_000 <= DES_OP_LIMIT <= 1_000_000


class TestResultPlumbing:
    def test_decision_attached(self):
        result = ftimm_gemm(4096, 32, 64, timing="analytic")
        assert result.decision.strategy == result.strategy
        assert result.decision.plan is not None

    def test_functional_report_attached_only_with_data(self):
        import numpy as np

        r1 = ftimm_gemm(256, 16, 32, timing="analytic")
        assert r1.functional is None
        a = np.zeros((256, 32), np.float32)
        b = np.zeros((32, 16), np.float32)
        c = np.zeros((256, 16), np.float32)
        r2 = ftimm_gemm(256, 16, 32, a=a, b=b, c=c, timing="analytic")
        assert r2.functional is not None
        assert r2.functional.flops == GemmShape(256, 16, 32).flops

    def test_tgemm_result_strategy_label(self):
        assert tgemm_gemm(512, 32, 64, timing="analytic").strategy == "tgemm"

    def test_machine_override(self):
        machine = default_machine()
        result = ftimm_gemm(4096, 32, 64, machine=machine, timing="analytic")
        assert result.n_cores == machine.cluster.n_cores

    def test_timing_object_consistency(self):
        result = ftimm_gemm(4096, 32, 64, timing="analytic")
        assert result.gflops == pytest.approx(result.timing.gflops)
        assert result.efficiency == pytest.approx(result.timing.efficiency)
        assert result.timing.strategy.startswith("ftimm")


class TestTunerDtypeInteraction:
    def test_f64_decision_carries_f64_plan(self, cluster):
        decision = tune(GemmShape(4096, 32, 64), cluster, dtype="f64")
        assert decision.plan.dtype == "f64"
        assert decision.plan.n_a <= 48

    def test_f64_k_strategy_plan(self, cluster):
        decision = tune(GemmShape(32, 32, 2**20), cluster, dtype="f64")
        assert decision.strategy == "k"
        assert decision.k_plan.dtype == "f64"
        assert decision.k_plan.am_bytes() <= cluster.core.am_bytes
