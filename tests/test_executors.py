"""Executors: functional replay, DES timing, analytic composition, and the
cross-validation between the two timing paths."""

import pytest

from repro.core.blocking import KPlan, MPlan, TgemmPlan, adjust_k_plan, adjust_m_plan
from repro.core.parallel_k import build_parallel_k
from repro.core.parallel_m import build_parallel_m
from repro.core.shapes import GemmShape
from repro.core.tgemm import build_tgemm
from repro.executor.analytic import (
    analytic_parallel_k,
    analytic_parallel_m,
    analytic_tgemm,
    busiest_core_chunks,
    pingpong_seq,
)
from repro.executor.functional import run_functional
from repro.executor.timed import run_timed

from conftest import kernel_cycles_by_core, make_operands, pingpong_uniform


class TestFunctionalReport:
    def test_counts(self, cluster, registry):
        shape = GemmShape(100, 32, 70)
        data, _ref = make_operands(shape)
        ex = build_parallel_m(shape, cluster, registry=registry, bindable=True)
        with ex.ctx.binding(data):
            rep = run_functional(ex)
        assert rep.ops_executed == ex.n_ops
        assert rep.kernel_ops > 0 and rep.dma_ops > 0
        assert rep.flops == shape.flops
        assert rep.bytes_moved == ex.total_dma_bytes


class TestTimedExecutor:
    def test_result_fields(self, cluster, registry):
        ex = build_parallel_m(GemmShape(1000, 32, 64), cluster, registry=registry)
        r = run_timed(ex)
        assert r.seconds > 0
        assert r.gflops > 0
        assert 0 < r.efficiency < 1
        assert r.events_processed > 0
        assert r.dma_bytes == ex.total_dma_bytes
        assert len(r.core_busy) == cluster.n_cores

    def test_pingpong_overlap_beats_serial_sum(self, cluster, registry):
        """Total time must be less than the serial sum of all DMA and
        compute durations — proof the DES actually overlaps phases."""
        ex = build_parallel_m(GemmShape(2000, 96, 864), cluster, registry=registry)
        r = run_timed(ex)
        serial_compute = max(kernel_cycles_by_core(ex)) / cluster.core.clock_hz
        # per-core serial estimate: its compute plus its DMA at full port
        serial = serial_compute + ex.total_dma_bytes / cluster.ddr_bandwidth
        assert r.seconds < serial

    def test_more_cores_never_slower_m_parallel(self, cluster, registry):
        shape = GemmShape(4096, 32, 128)
        times = []
        for n in (1, 2, 4, 8):
            sub = cluster.with_cores(n)
            plan = adjust_m_plan(MPlan(), shape, sub)
            ex = build_parallel_m(shape, sub, plan=plan, adjust=False, registry=registry)
            times.append(run_timed(ex).seconds)
        assert times[-1] < times[0]
        for a, b in zip(times, times[1:]):
            assert b <= a * 1.05

    def test_ddr_contention_visible(self, cluster, registry):
        ex = build_parallel_m(GemmShape(8000, 32, 32), cluster, registry=registry)
        r = run_timed(ex)
        assert r.ddr_mean_concurrency > 1.5  # many engines pull at once

    def test_deterministic(self, cluster, registry):
        ex1 = build_parallel_k(GemmShape(32, 32, 8192), cluster, registry=registry)
        ex2 = build_parallel_k(GemmShape(32, 32, 8192), cluster, registry=registry)
        assert run_timed(ex1).seconds == run_timed(ex2).seconds


class TestPingPongHelpers:
    def test_uniform_closed_form(self):
        assert pingpong_seq([(2.0, 3.0)]) == 5.0
        assert pingpong_seq([(2.0, 3.0)] * 3) == 2.0 + 3.0 + 2 * 3.0
        assert pingpong_seq([]) == 0.0

    def test_seq_matches_uniform(self):
        pairs = [(2.0, 3.0)] * 5
        assert pingpong_seq(pairs) == pytest.approx(pingpong_uniform(5, 2.0, 3.0))

    def test_seq_load_bound(self):
        pairs = [(5.0, 1.0)] * 4
        assert pingpong_seq(pairs) == pytest.approx(4 * 5.0 + 1.0)

    def test_seq_heterogeneous(self):
        # load 1 at t=0-1; compute 1 at 1-11; load 2 at 1-2 (overlapped);
        # compute 2 at 11-12
        assert pingpong_seq([(1.0, 10.0), (1.0, 1.0)]) == pytest.approx(12.0)

    def test_empty(self):
        assert pingpong_seq([]) == 0.0


class TestBusiestCoreChunks:
    def test_even_division(self):
        assert busiest_core_chunks(80, 10, 8) == [10]

    def test_remainder_chunk_counted(self):
        chunks = busiest_core_chunks(85, 10, 8)
        assert sum(chunks) >= 10  # core 0 holds a full chunk + maybe more

    def test_exhaustive_against_bruteforce(self):
        import math
        for total, block, p in [(85, 10, 8), (100, 7, 3), (5, 10, 8), (64, 8, 8), (63, 8, 4)]:
            n_chunks = math.ceil(total / block)
            per_core = {c: [] for c in range(p)}
            for idx in range(n_chunks):
                size = block if (idx < n_chunks - 1 or total % block == 0) else total % block
                per_core[idx % p].append(size)
            best = max(per_core.values(), key=lambda ch: (sum(ch), len(ch)))
            assert busiest_core_chunks(total, block, p) == best

    def test_zero_total(self):
        assert busiest_core_chunks(0, 10, 8) == []


class TestAnalyticVsDes:
    """The two timing paths must agree on their overlapping domain.

    Tolerance 20%: the analytic model approximates contention as a steady
    even split and serializes phase boundaries.
    """

    @pytest.mark.parametrize(
        "m,n,k", [(20000, 32, 32), (8192, 96, 512), (20480, 32, 2048)]
    )
    def test_m_parallel(self, cluster, registry, m, n, k):
        shape = GemmShape(m, n, k)
        plan = adjust_m_plan(MPlan(), shape, cluster)
        des = run_timed(
            build_parallel_m(shape, cluster, plan=plan, adjust=False, registry=registry)
        )
        ana = analytic_parallel_m(shape, cluster, plan, registry)
        assert ana.seconds == pytest.approx(des.seconds, rel=0.20)

    @pytest.mark.parametrize("m,n,k", [(32, 32, 65536), (64, 64, 20480)])
    def test_k_parallel(self, cluster, registry, m, n, k):
        shape = GemmShape(m, n, k)
        plan = adjust_k_plan(KPlan(), shape, cluster)
        des = run_timed(
            build_parallel_k(shape, cluster, plan=plan, adjust=False, registry=registry)
        )
        ana = analytic_parallel_k(shape, cluster, plan, registry)
        assert ana.seconds == pytest.approx(des.seconds, rel=0.20)

    @pytest.mark.parametrize("m,n,k", [(4096, 32, 2048), (2048, 96, 1024)])
    def test_tgemm(self, cluster, registry, m, n, k):
        shape = GemmShape(m, n, k)
        plan = TgemmPlan()
        des = run_timed(build_tgemm(shape, cluster, plan=plan, registry=registry))
        ana = analytic_tgemm(shape, cluster, plan, registry)
        assert ana.seconds == pytest.approx(des.seconds, rel=0.20)

    def test_analytic_monotone_in_problem_size(self, cluster, registry):
        plan = adjust_m_plan(MPlan(), GemmShape(2**20, 32, 32), cluster)
        t1 = analytic_parallel_m(GemmShape(2**18, 32, 32), cluster, plan, registry)
        t2 = analytic_parallel_m(GemmShape(2**20, 32, 32), cluster, plan, registry)
        assert t2.seconds > t1.seconds
