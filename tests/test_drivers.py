"""The three algorithm drivers: functional correctness (including
property-based shape fuzzing), capacity accounting and stream structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel_k import build_parallel_k
from repro.core.parallel_m import build_parallel_m
from repro.core.plans import OpKind
from repro.core.shapes import GemmShape
from repro.core.tgemm import build_tgemm
from repro.executor.functional import run_functional

from conftest import assert_gemm_close, make_operands

BUILDERS = {
    "tgemm": build_tgemm,
    "parallel_m": build_parallel_m,
    "parallel_k": build_parallel_k,
}


def run_check(builder, shape, cluster, registry, seed=0):
    data, ref = make_operands(shape, seed)
    ex = builder(shape, cluster, registry=registry, bindable=True)
    with ex.ctx.binding(data):
        report = run_functional(ex)
    assert_gemm_close(data.c, ref, shape.k)
    return ex, report


class TestTgemmCorrectness:
    @pytest.mark.parametrize(
        "m,n,k",
        [
            (6, 96, 512),      # exactly one kernel tile
            (100, 32, 70),     # remainders everywhere
            (512, 96, 512),    # exact block multiples
            (513, 97, 513),    # one past the blocks; N > 96 (two strips)
            (1, 1, 1),         # degenerate
            (600, 200, 520),   # multi-strip multi-panel
            (7, 5, 3),
        ],
    )
    def test_functional(self, cluster, registry, m, n, k):
        run_check(build_tgemm, GemmShape(m, n, k), cluster, registry)

    def test_single_strip_uses_one_compute_core(self, cluster, registry):
        """N <= 96: TGEMM's parallel loop degenerates to one core — the
        paper's problem 2."""
        ex = build_tgemm(GemmShape(512, 96, 512), cluster, registry=registry)
        kernels_by_core = [
            sum(op.kind is OpKind.KERNEL for op in ops) for ops in ex.core_ops
        ]
        assert kernels_by_core[0] > 0
        assert all(c == 0 for c in kernels_by_core[1:])

    def test_wide_n_spreads_over_cores(self, cluster, registry):
        ex = build_tgemm(GemmShape(512, 96 * 4, 512), cluster, registry=registry)
        busy = sum(
            any(op.kind is OpKind.KERNEL for op in ops) for ops in ex.core_ops
        )
        assert busy == 4


class TestParallelMCorrectness:
    @pytest.mark.parametrize(
        "m,n,k",
        [
            (320, 96, 864),      # exactly the default blocks
            (100, 32, 70),
            (3000, 17, 40),
            (1000, 96, 900),
            (8, 96, 8),          # fewer rows than m_s * cores
            (2561, 1, 1),
            (640, 48, 1728),
        ],
    )
    def test_functional(self, cluster, registry, m, n, k):
        run_check(build_parallel_m, GemmShape(m, n, k), cluster, registry)

    def test_all_cores_compute_for_large_m(self, cluster, registry):
        ex = build_parallel_m(GemmShape(4000, 32, 64), cluster, registry=registry)
        kernels_by_core = [
            sum(op.kind is OpKind.KERNEL for op in ops) for ops in ex.core_ops
        ]
        assert all(c > 0 for c in kernels_by_core)

    def test_capacity_peaks_within_limits(self, cluster, registry):
        ex = build_parallel_m(GemmShape(4000, 96, 2000), cluster, registry=registry)
        assert ex.meta["peak_am"] <= cluster.core.am_bytes
        assert ex.meta["peak_sm"] <= cluster.core.sm_bytes
        assert ex.meta["peak_gsm"] <= cluster.gsm_bytes

    def test_no_adjust_uses_given_plan(self, cluster, registry):
        from repro.core.blocking import MPlan

        plan = MPlan()
        ex = build_parallel_m(
            GemmShape(320, 96, 864), cluster, plan=plan, registry=registry,
            adjust=False,
        )
        assert ex.meta["plan"] is plan


class TestParallelKCorrectness:
    @pytest.mark.parametrize(
        "m,n,k",
        [
            (32, 32, 3000),
            (50, 20, 1100),
            (7, 3, 2000),
            (32, 32, 512),     # exactly one chunk per-ish core
            (1, 1, 5000),
            (96, 96, 4096),
            (14, 96, 1025),
        ],
    )
    def test_functional(self, cluster, registry, m, n, k):
        run_check(build_parallel_k, GemmShape(m, n, k), cluster, registry)

    def test_reduction_sync_per_tile(self, cluster, registry):
        ex = build_parallel_k(GemmShape(32, 32, 4096), cluster, registry=registry)
        assert ex.n_syncs >= 1
        syncs = [op for op in ex.core_ops[0] if op.kind is OpKind.SYNC]
        assert all(op.sync_seconds > 0 for op in syncs)

    def test_chunks_spread_over_cores(self, cluster, registry):
        ex = build_parallel_k(GemmShape(32, 32, 65536), cluster, registry=registry)
        kernels_by_core = [
            sum(op.kind is OpKind.KERNEL and op.flops > 0 for op in ops)
            for ops in ex.core_ops
        ]
        assert all(c > 0 for c in kernels_by_core)

    def test_meta_reports_active_cores(self, cluster, registry):
        ex = build_parallel_k(GemmShape(32, 32, 600), cluster, registry=registry)
        assert 1 <= ex.meta["n_active"] <= cluster.n_cores


class TestStreamStructure:
    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_dma_bytes_cover_operands(self, cluster, registry, name):
        """Every operand element must be moved at least once."""
        shape = GemmShape(128, 32, 96)
        ex = BUILDERS[name](shape, cluster, registry=registry)
        assert ex.total_dma_bytes >= shape.a_bytes + min(
            shape.b_bytes, shape.c_bytes
        )

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_flops_match_problem(self, cluster, registry, name):
        """Kernel flops accounting equals 2MNK exactly (padding is time,
        not counted work)."""
        shape = GemmShape(100, 32, 70)
        ex = BUILDERS[name](shape, cluster, registry=registry)
        assert ex.total_flops == shape.flops

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_timing_only_plans_have_no_closures(self, cluster, registry, name):
        ex = BUILDERS[name](GemmShape(64, 16, 32), cluster, registry=registry)
        assert all(
            op.run is None for ops in ex.core_ops for op in ops
        )


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 700),
    n=st.integers(1, 120),
    k=st.integers(1, 700),
    seed=st.integers(0, 10**6),
)
def test_property_tgemm_computes_gemm(m, n, k, seed):
    from repro.hw.config import default_machine
    from repro.kernels.registry import registry_for

    cluster = default_machine().cluster
    run_check(
        build_tgemm, GemmShape(m, n, k), cluster,
        registry_for(cluster.core), seed,
    )


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 4000),
    n=st.integers(1, 96),
    k=st.integers(1, 600),
    seed=st.integers(0, 10**6),
)
def test_property_parallel_m_computes_gemm(m, n, k, seed):
    from repro.hw.config import default_machine
    from repro.kernels.registry import registry_for

    cluster = default_machine().cluster
    run_check(
        build_parallel_m, GemmShape(m, n, k), cluster,
        registry_for(cluster.core), seed,
    )


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 96),
    n=st.integers(1, 96),
    k=st.integers(1, 8000),
    seed=st.integers(0, 10**6),
)
def test_property_parallel_k_computes_gemm(m, n, k, seed):
    from repro.hw.config import default_machine
    from repro.kernels.registry import registry_for

    cluster = default_machine().cluster
    run_check(
        build_parallel_k, GemmShape(m, n, k), cluster,
        registry_for(cluster.core), seed,
    )


class TestPingPongAblation:
    def test_single_buffer_correct_m(self, cluster, registry):
        shape = GemmShape(300, 32, 200)
        data, ref = make_operands(shape, seed=21)
        ex = build_parallel_m(shape, cluster, registry=registry,
                              pingpong=False, bindable=True)
        with ex.ctx.binding(data):
            run_functional(ex)
        assert_gemm_close(data.c, ref, shape.k)

    def test_single_buffer_correct_k(self, cluster, registry):
        shape = GemmShape(32, 32, 3000)
        data, ref = make_operands(shape, seed=22)
        ex = build_parallel_k(shape, cluster, registry=registry,
                              pingpong=False, bindable=True)
        with ex.ctx.binding(data):
            run_functional(ex)
        assert_gemm_close(data.c, ref, shape.k)

    def test_single_buffer_uses_less_memory(self, cluster, registry):
        shape = GemmShape(2000, 32, 512)
        on = build_parallel_m(shape, cluster, registry=registry)
        off = build_parallel_m(shape, cluster, registry=registry, pingpong=False)
        assert off.meta["peak_am"] < on.meta["peak_am"]
        assert off.meta["peak_sm"] < on.meta["peak_sm"]

    def test_single_buffer_is_slower(self, cluster, registry):
        from repro.executor.timed import run_timed

        shape = GemmShape(2000, 32, 512)
        on = run_timed(build_parallel_m(shape, cluster, registry=registry))
        off = run_timed(
            build_parallel_m(shape, cluster, registry=registry, pingpong=False)
        )
        assert off.seconds > on.seconds
