"""Compile-once lowering: cached programs bound per call.

A cached program must behave exactly like a freshly lowered one, whatever
ran on the shared tile arena before it, whatever binding it had last, and
whichever entries the LRU evicted in between.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import ftimm
from repro.core.ftimm import clear_programs, ftimm_gemm, lowered_program, tgemm_gemm
from repro.core.lowering import GemmOperands
from repro.core.parallel_k import build_parallel_k
from repro.core.parallel_m import build_parallel_m
from repro.core.shapes import GemmShape
from repro.core.tgemm import build_tgemm
from repro.core.tuner import tune
from repro.executor.functional import run_functional
from repro.faults.plan import CoreFault, FaultPlan
from repro.hw.cluster import scratch_arena
from repro.hw.config import default_machine
from repro.obs import collecting

#: the paper's irregular grid: three (M, K) types x N
GRID_TYPES = ((8192, 512), (64, 16384), (2048, 2048))
GRID_NS = (16, 32, 64)
#: the same three types with the long dimensions cut 16x: the ISA model
#: behind kernel_exec="compiled" runs about 100x slower than NumPy
SMALL_TYPES = ((512, 32), (64, 1024), (128, 128))
STRATEGIES = ("m", "k", "tgemm")


@pytest.fixture(autouse=True)
def cold_cache():
    clear_programs()
    yield
    clear_programs()


def operands(m, n, k, seed=0, dtype=np.float32):
    rng = np.random.default_rng([m, n, k, seed])
    return tuple(
        rng.standard_normal(dims).astype(dtype)
        for dims in ((m, k), (k, n), (m, n))
    )


def cached_run(m, n, k, strategy, a, b, c0, **kw):
    """C and the report of one call through the program cache."""
    c = c0.copy()
    if strategy == "tgemm":
        result = tgemm_gemm(m, n, k, a=a, b=b, c=c, timing="none", **kw)
    else:
        result = ftimm_gemm(
            m, n, k, a=a, b=b, c=c, timing="none", force_strategy=strategy,
            **kw,
        )
    return c, result.functional


def fresh_run(m, n, k, strategy, a, b, c0, kernel_exec="numpy"):
    """C and the report of a one-shot lowering outside the program cache."""
    shape = GemmShape(m, n, k)
    c = c0.copy()
    data = GemmOperands.check(shape, a, b, c)
    cluster = default_machine().cluster
    if strategy == "tgemm":
        ex = build_tgemm(shape, cluster, bindable=True)
    else:
        decision = tune(shape, cluster, force_strategy=strategy)
        build = build_parallel_m if strategy == "m" else build_parallel_k
        ex = build(
            shape, cluster, decision.plan, adjust=False, bindable=True
        )
    with ex.ctx.binding(data, kernel_exec=kernel_exec):
        return c, run_functional(ex)


def counters(reg) -> dict[str, float]:
    snap = reg.snapshot()
    return {
        name: snap.get(f"core/lowering/{name}", {}).get("value", 0)
        for name in ("hits", "misses", "evictions")
    }


class TestCachedEqualsFresh:
    def check_grid(self, points, kernel_exec, monkeypatch, bound):
        # a bound below the grid's footprint: the second sweep re-lowers
        # programs the first one evicted
        monkeypatch.setattr(ftimm, "_PROGRAM_CACHE_OPS", bound)
        expected = {
            p: fresh_run(*p, *operands(*p[:3]), kernel_exec=kernel_exec)
            for p in points
        }
        with collecting() as reg:
            for sweep in (points, points[::-1]):
                for p in sweep:
                    c, report = cached_run(
                        *p, *operands(*p[:3]), kernel_exec=kernel_exec
                    )
                    c_ref, report_ref = expected[p]
                    assert np.array_equal(c, c_ref), p
                    assert report == report_ref, p
        counts = counters(reg)
        assert counts["evictions"] > 0
        assert counts["hits"] > 0

    def test_paper_grid_numpy(self, monkeypatch):
        # strategies interleaved, so neighbouring calls use other programs
        points = [
            (m, n, k, s)
            for n in GRID_NS
            for s in STRATEGIES
            for m, k in GRID_TYPES
        ]
        self.check_grid(points, "numpy", monkeypatch, bound=8_000)

    def test_paper_types_compiled(self, monkeypatch):
        points = [
            (m, n, k, s)
            for n in (16, 64)
            for s in STRATEGIES
            for m, k in SMALL_TYPES
        ]
        self.check_grid(points, "compiled", monkeypatch, bound=300)


class TestArena:
    POINTS = [(2048, 32, 512, "m"), (64, 16, 4096, "k"), (700, 64, 600, "tgemm")]

    def check_poisoned(self, points, **kw):
        cluster = default_machine().cluster
        arena = scratch_arena(cluster)
        for m, n, k, s in points:
            a, b, c0 = operands(m, n, k)
            c_clean, _ = cached_run(m, n, k, s, a, b, c0, **kw)
            arena.view(np.float32)[:] = np.nan
            c_poisoned, _ = cached_run(m, n, k, s, a, b, c0, **kw)
            assert np.array_equal(c_clean, c_poisoned), s
            assert np.isfinite(c_poisoned).all()

    def test_poisoned_arena_changes_no_bit(self):
        """Every tile a program reads was written earlier in the same call:
        NaN left in the arena between calls never reaches C."""
        self.check_poisoned(self.POINTS)

    def test_poisoned_arena_changes_no_bit_faulted(self):
        """The same under faults, which keep the op list and its arena
        tiles (a clean M-parallel or TGEMM call runs flat and stages only
        one-row or one-column tiles through the arena)."""
        self.check_poisoned(
            self.POINTS, faults=FaultPlan(seed=5, bitflip_rate=0.02)
        )

    def test_poisoned_arena_changes_no_bit_compiled(self):
        """The same for ISA kernels, which keep the op list too."""
        self.check_poisoned(
            [(256, 32, 128, "m"), (64, 16, 1024, "k"), (128, 64, 128, "tgemm")],
            kernel_exec="compiled",
        )

    def test_programs_hold_no_operands(self):
        """After the call the binding is gone: no operand outlives it."""
        a, b, c0 = operands(1000, 32, 256)
        c = c0.copy()
        ftimm_gemm(1000, 32, 256, a=a, b=b, c=c, timing="none")
        program = next(iter(ftimm._programs.values()))
        assert program.ctx.data is None and program.ctx.faults is None


class TestFaults:
    @pytest.mark.parametrize("plan", [
        FaultPlan(seed=5, bitflip_rate=0.02, dma_fail_rate=0.2,
                  max_kernel_retries=3),
        FaultPlan(seed=9, bitflip_rate=0.1, core_faults=(
            CoreFault(core=1, after_s=2e-6, after_ops=7),
        )),
    ], ids=["bitflips", "core-failure"])
    def test_repeats_equal_the_first_call(self, plan):
        m, n, k = 2048, 32, 512
        a, b, c0 = operands(m, n, k)
        outcomes = []
        for _ in range(4):
            c = c0.copy()
            result = ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="des",
                                faults=plan)
            outcomes.append((c, result.faults, result.seconds))
        c_first, report_first, seconds_first = outcomes[0]
        if plan.core_faults:
            assert report_first.redispatches >= 1
        else:
            assert report_first.injected_bitflips >= 1
        for c, report, seconds in outcomes[1:]:
            assert np.array_equal(c, c_first)
            assert report == report_first
            assert seconds == seconds_first


class TestKeys:
    def test_variants_never_alias(self):
        m, n, k = 1000, 24, 300
        variants = [
            {},
            {"force_strategy": "k"},
            {"adjust": False},
            {"cores": 4},
            {"dtype": "f64"},
        ]

        def run(kw):
            dtype = np.float64 if kw.get("dtype") == "f64" else np.float32
            a, b, c = operands(m, n, k, dtype=dtype)
            ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="none", **kw)
            return c

        cold = []
        for kw in variants:
            clear_programs()
            cold.append(run(kw))
        clear_programs()
        for _ in range(2):
            for kw, c_cold in zip(variants, cold):
                assert np.array_equal(run(kw), c_cold), kw
        # five variants, five distinct (cluster, strategy, plan) programs
        assert len(ftimm._programs) == len(variants)

    def test_reduced_cluster_is_its_own_key(self, cluster):
        shape = GemmShape(1000, 32, 256)
        full = lowered_program(shape, cluster, tune(shape, cluster))
        small = cluster.with_cores(cluster.n_cores - 1)
        reduced = lowered_program(shape, small, tune(shape, small))
        assert reduced is not full
        assert len(reduced.core_ops) == cluster.n_cores - 1


class TestBound:
    def test_eviction_respects_the_bound(self, cluster, monkeypatch):
        bound = 1_000
        monkeypatch.setattr(ftimm, "_PROGRAM_CACHE_OPS", bound)
        shapes = [GemmShape(m, 32, 256) for m in (512, 1024, 1536, 2048, 3072)]
        with collecting() as reg:
            for shape in shapes:
                lowered_program(shape, cluster, tune(shape, cluster))
                held = sum(p.n_ops for p in ftimm._programs.values())
                assert held == ftimm._cached_ops <= bound
        assert counters(reg)["evictions"] > 0

    def test_oversized_program_is_not_kept(self, cluster, monkeypatch):
        monkeypatch.setattr(ftimm, "_PROGRAM_CACHE_OPS", 50)
        shape = GemmShape(1024, 32, 256)
        decision = tune(shape, cluster)
        with collecting() as reg:
            first = lowered_program(shape, cluster, decision)
            second = lowered_program(shape, cluster, decision)
        assert first.n_ops > 50 and second is not first
        assert not ftimm._programs
        assert counters(reg)["misses"] == 2

    def test_timing_program_gains_closures_on_demand(self, cluster):
        shape = GemmShape(512, 32, 128)
        decision = tune(shape, cluster)
        with collecting() as reg:
            timing = lowered_program(shape, cluster, decision)
            assert not timing.ctx.backed
            functional = lowered_program(
                shape, cluster, decision, functional=True
            )
            assert functional.ctx.backed
            assert lowered_program(shape, cluster, decision) is functional
        assert counters(reg) == {"hits": 1, "misses": 2, "evictions": 0}
        assert ftimm._cached_ops == functional.n_ops


class TestBinding:
    def test_repeated_calls_hit(self):
        m, n, k = 512, 32, 512
        a, b, c0 = operands(m, n, k)
        with collecting() as reg:
            results = [cached_run(m, n, k, "m", a, b, c0)[0] for _ in range(5)]
        assert counters(reg) == {"hits": 4, "misses": 1, "evictions": 0}
        for c in results[1:]:
            assert np.array_equal(c, results[0])

    def test_report_names_the_bound_kernel_mode(self):
        m, n, k = 64, 16, 64
        a, b, c0 = operands(m, n, k)
        c_numpy, report_numpy = cached_run(m, n, k, "m", a, b, c0)
        with collecting() as reg:
            c_isa, report_isa = cached_run(
                m, n, k, "m", a, b, c0, kernel_exec="compiled"
            )
        assert counters(reg)["hits"] == 1
        assert report_numpy.kernel_exec == "numpy"
        assert report_isa.kernel_exec == "compiled"
        assert dataclasses.replace(report_isa, kernel_exec="numpy") == report_numpy
        clear_programs()
        c_cold, _ = cached_run(m, n, k, "m", a, b, c0, kernel_exec="compiled")
        assert np.array_equal(c_isa, c_cold)

    def test_unknown_kernel_mode_rejected_at_bind(self):
        from repro.errors import PlanError

        a, b, c = operands(64, 16, 64)
        with pytest.raises(PlanError, match="kernel execution mode"):
            ftimm_gemm(64, 16, 64, a=a, b=b, c=c, timing="none",
                       kernel_exec="bogus")


class TestAnalyticCache:
    """The analytic model is kept per (shape, cluster, strategy, plan)."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_hit_is_an_equal_private_copy(self, strategy):
        m, k = (64, 4096) if strategy == "k" else (2048, 512)
        call = (
            (lambda: tgemm_gemm(m, 32, k, timing="analytic"))
            if strategy == "tgemm" else
            (lambda: ftimm_gemm(m, 32, k, timing="analytic",
                                force_strategy=strategy))
        )
        first = call().timing
        assert len(ftimm._analytic_results) == 1
        first.core_busy.append(-1.0)
        second = call().timing
        assert second is not first
        assert -1.0 not in second.core_busy
        first.core_busy.pop()
        assert dataclasses.asdict(second) == dataclasses.asdict(first)
        clear_programs()
        assert not ftimm._analytic_results
        assert dataclasses.asdict(call().timing) == dataclasses.asdict(first)

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(ftimm, "_ANALYTIC_CACHE", 2)
        for m in (256, 512, 1024):
            ftimm_gemm(m, 32, 256, timing="analytic")
        kept = [key[0].m for key in ftimm._analytic_results]
        assert kept == [512, 1024]
