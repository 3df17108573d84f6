"""Fault injection and the no-silent-corruption contract.

The resilience guarantee under test: a GEMM run with a ``FaultPlan``
either finishes with the *exact* bits the fault-free blocked algorithm
produces, or raises a typed :class:`~repro.errors.FaultError`.  Silent
wrong answers are the one outcome that must never occur — the chaos
sweep at the bottom asserts it wholesale, the focused tests pin down
each recovery mechanism (DMA read-back, ABFT recompute, core-failure
re-dispatch) and each loud-failure path (retry budgets, last core).
"""

import warnings

import numpy as np
import pytest

from repro.core.blocking import TgemmPlan
from repro.core.ftimm import ftimm_gemm, lowered_program, tgemm_gemm
from repro.core.lowering import GemmOperands
from repro.core.shapes import GemmShape
from repro.core.tuner import TuningDecision, tune
from repro.errors import (
    ConfigError,
    CoreFailureError,
    CorruptionError,
    DmaTransferError,
    FaultError,
    InputError,
)
from repro.executor.functional import run_functional
from repro.executor.timed import run_timed
from repro.faults.chaos import DEFAULT_SHAPES, chaos_sweep
from repro.faults.inject import (
    FaultInjector,
    FaultReport,
    _abft_expect,
    _abft_ok,
)
from repro.faults.plan import NO_FAULTS, CoreFault, DegradationWindow, FaultPlan
from repro.hw.config import default_machine
from repro.obs import collecting, tracing
from repro.serve.loadgen import MIXES

M, N, K = 96, 32, 128


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((M, K)).astype(np.float32)
    b = rng.standard_normal((K, N)).astype(np.float32)
    return a, b


@pytest.fixture(scope="module")
def baseline(operands):
    a, b = operands
    c = np.zeros((M, N), np.float32)
    ftimm_gemm(M, N, K, a=a, b=b, c=c, timing="none")
    return c


class TestFaultPlan:
    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            FaultPlan(dma_fail_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(bitflip_rate=-0.1)

    def test_degradation_validation(self):
        with pytest.raises(ConfigError):
            DegradationWindow(2.0, 1.0, 0.5).validate()   # empty window
        with pytest.raises(ConfigError):
            FaultPlan(ddr_degradation=(DegradationWindow(0.0, 1.0, 0.0),))
        with pytest.raises(ConfigError):  # overlapping windows
            FaultPlan(ddr_degradation=(
                DegradationWindow(0.0, 2.0, 0.5),
                DegradationWindow(1.0, 3.0, 0.5),
            ))

    def test_core_fault_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(core_faults=(CoreFault(core=-1, after_ops=0),))

    def test_enabled(self):
        assert not NO_FAULTS.enabled
        assert not FaultPlan(seed=42).enabled
        assert FaultPlan(bitflip_rate=1e-3).enabled
        assert FaultPlan(core_faults=(CoreFault(0, after_ops=1),)).enabled

    def test_core_fault_for_attempt_in_order(self):
        plan = FaultPlan(core_faults=(
            CoreFault(3, after_ops=1), CoreFault(1, after_ops=2),
        ))
        assert plan.core_fault_for_attempt(0).core == 3
        assert plan.core_fault_for_attempt(1).core == 1
        assert plan.core_fault_for_attempt(2) is None


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        one = FaultInjector(FaultPlan(seed=9, dma_fail_rate=0.5), attempt=0)
        two = FaultInjector(FaultPlan(seed=9, dma_fail_rate=0.5), attempt=0)
        sites = [("dma", c, i, a) for c in range(4) for i in range(8)
                 for a in range(2)]
        assert [one.unit(*s) for s in sites] == [two.unit(*s) for s in sites]

    def test_seed_and_attempt_decorrelate(self):
        base = FaultInjector(FaultPlan(seed=9), attempt=0)
        seed = FaultInjector(FaultPlan(seed=10), attempt=0)
        attempt = FaultInjector(FaultPlan(seed=9), attempt=1)
        sites = [("x", i) for i in range(64)]
        assert [base.unit(*s) for s in sites] != [seed.unit(*s) for s in sites]
        assert [base.unit(*s) for s in sites] != [
            attempt.unit(*s) for s in sites
        ]

    def test_unit_in_range(self):
        inj = FaultInjector(FaultPlan(seed=3), attempt=0)
        vals = [inj.unit("u", i) for i in range(256)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert len(set(vals)) > 200  # actually spread out


class TestNoFaultBitIdentity:
    def test_armed_but_silent_plan_is_bit_identical(self, operands, baseline):
        a, b = operands
        c = np.zeros((M, N), np.float32)
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=c, timing="none", faults=NO_FAULTS
        )
        assert np.array_equal(c, baseline)
        assert result.faults is not None
        assert result.faults.recovered_faults == 0
        assert result.faults.injected_bitflips == 0

    def test_auto_timing_with_faults_uses_des(self, operands):
        a, b = operands
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=np.zeros((M, N), np.float32),
            faults=FaultPlan(seed=1),
        )
        assert result.timing_mode == "des"


class TestAbftNonFinite:
    @pytest.mark.parametrize("bad", [
        [(1, 2, np.inf)],
        [(1, 2, np.inf), (1, 3, -np.inf)],
        [(0, 0, np.nan)],
        [(2, 1, np.finfo(np.float64).max), (2, 2, np.finfo(np.float64).max)],
    ])
    def test_rejected_without_a_warning(self, bad):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 8))
        b = rng.standard_normal((8, 4))
        c = np.zeros((4, 4))
        expect = _abft_expect(a, b, c)
        c += a @ b
        assert _abft_ok(c, *expect)
        for row, col, value in bad:
            c[row, col] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _abft_ok(c, *expect)


class TestBitflipRecovery:
    def test_f32_copy_and_abft_recovery_exact(self, operands, baseline):
        a, b = operands
        c = np.zeros((M, N), np.float32)
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=c, timing="none",
            faults=FaultPlan(seed=0, bitflip_rate=8e-2),
        )
        report = result.faults
        # seed 0 at this rate deterministically exercises both guards
        assert report.injected_bitflips > 0
        assert report.copy_retries > 0
        assert report.abft_detected > 0
        assert report.abft_recomputes == report.abft_detected
        assert np.array_equal(c, baseline)

    def test_f64_abft_recovery_exact(self):
        rng = np.random.default_rng(2)
        m, n, k = 48, 16, 64
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        ref = np.zeros((m, n))
        ftimm_gemm(m, n, k, a=a, b=b, c=ref, timing="none", dtype="f64")
        c = np.zeros((m, n))
        result = ftimm_gemm(
            m, n, k, a=a, b=b, c=c, timing="none", dtype="f64",
            faults=FaultPlan(seed=1, bitflip_rate=8e-2),
        )
        assert result.faults.injected_bitflips > 0
        assert np.array_equal(c, ref)

    def test_tgemm_recovery_exact(self, operands):
        a, b = operands
        ref = np.zeros((M, N), np.float32)
        tgemm_gemm(M, N, K, a=a, b=b, c=ref, timing="none")
        c = np.zeros((M, N), np.float32)
        result = tgemm_gemm(
            M, N, K, a=a, b=b, c=c, timing="none",
            faults=FaultPlan(seed=0, bitflip_rate=8e-2),
        )
        assert result.faults.injected_bitflips > 0
        assert np.array_equal(c, ref)

    def test_same_plan_same_report(self, operands):
        a, b = operands
        plan = FaultPlan(seed=0, bitflip_rate=8e-2)
        runs = []
        for _ in range(2):
            c = np.zeros((M, N), np.float32)
            runs.append(
                ftimm_gemm(M, N, K, a=a, b=b, c=c, timing="none", faults=plan)
            )
        assert runs[0].faults == runs[1].faults


class TestCoreFailure:
    def test_functional_redispatch_matches_fault_free_run(self, operands,
                                                          baseline):
        a, b = operands
        c = np.zeros((M, N), np.float32)
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=c, timing="none",
            faults=FaultPlan(core_faults=(CoreFault(core=2, after_ops=3),)),
        )
        report = result.faults
        assert report.core_failures == 1
        assert report.redispatches == 1
        assert result.n_cores == report.final_cores == 7
        # a survivor runs the dead core's op stream of the same program,
        # so C is the fault-free full-cluster run's, bit for bit
        assert np.array_equal(c, baseline)

    def test_two_faults_round_robin_over_survivors(self, operands,
                                                   baseline):
        a, b = operands
        c = np.zeros((M, N), np.float32)
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=c, timing="des",
            faults=FaultPlan(core_faults=(
                CoreFault(core=0, after_s=1e-6, after_ops=1),
                CoreFault(core=1, after_s=1e-6, after_ops=1),
            )),
        )
        report = result.faults
        # each phase loses core 0, then core 1 (hosting core 0's stream)
        assert report.core_failures == report.redispatches == 4
        assert result.n_cores == report.final_cores == 6
        assert np.array_equal(c, baseline)
        # the first two survivors, cores 2 and 3, host one dead stream each
        busy = result.timing.core_busy
        assert busy[0] == busy[1] == 0.0
        assert busy[2] == busy[3] == pytest.approx(2 * busy[4])

    def test_hosted_stream_is_attributed_to_its_host(self):
        # core 0 is dead and core 1 runs its op stream: the kernel spans,
        # profile compute, DMA time, window stalls and sync waits of that
        # stream belong to core 1
        shape = GemmShape(2048, 32, 2048)
        cluster = default_machine().cluster
        program = lowered_program(shape, cluster, tune(shape, cluster))
        with tracing() as tr:
            timed = run_timed(
                program, faults=FaultInjector(FaultPlan(seed=1), 1, {0: 1}),
            )
        epochs = timed.profile.epochs
        compute = [sum(e.compute_busy[c] for e in epochs)
                   for c in range(cluster.n_cores)]
        assert compute == pytest.approx(timed.core_busy, rel=1e-9)
        assert timed.core_busy[0] == 0.0
        assert sum(e.dma_busy[0] for e in epochs) == 0.0
        assert sum(e.window_stall[0] for e in epochs) == 0.0
        assert sum(e.sync_wait[0] for e in epochs) == 0.0
        # moving the charge to the host keeps each epoch's total; these
        # are the totals as charged to the streams' own cores
        assert [sum(e.window_stall) for e in epochs] == pytest.approx(
            [0.0, 0.00216587318243222], rel=1e-12)
        assert [sum(e.sync_wait) for e in epochs] == pytest.approx(
            [1.7777777777777773e-06, 0.0], rel=1e-12)
        kernels = [s for s in tr.spans if s.category == "kernel"]
        assert kernels
        assert not [s for s in kernels if s.track == "core0/compute"]
        assert not [s for s in kernels if s.args["core"] == 0]

    def test_fault_on_a_dead_core_never_fires(self, operands, baseline):
        a, b = operands
        c = np.zeros((M, N), np.float32)
        result = ftimm_gemm(
            M, N, K, a=a, b=b, c=c, timing="des",
            faults=FaultPlan(core_faults=(
                CoreFault(core=3, after_s=1e-6, after_ops=1),
                CoreFault(core=3, after_s=0.0, after_ops=0),
            )),
        )
        report = result.faults
        assert report.core_failures == report.redispatches == 2
        assert result.n_cores == report.final_cores == 7
        assert np.array_equal(c, baseline)

    def test_timed_redispatch_reports_lost_time(self):
        clean = ftimm_gemm(M, N, K, timing="des")
        result = ftimm_gemm(
            M, N, K, timing="des",
            faults=FaultPlan(core_faults=(CoreFault(core=1, after_s=1e-6),)),
        )
        report = result.faults
        assert report.redispatches == 1
        assert report.lost_s > 0.0
        # the discarded work and the survivor running two streams both
        # cost time
        assert result.seconds > clean.seconds

    def test_last_core_failure_is_loud(self, operands):
        a, b = operands
        with pytest.raises(CoreFailureError):
            ftimm_gemm(
                M, N, K, a=a, b=b, c=np.zeros((M, N), np.float32),
                timing="none", cores=1,
                faults=FaultPlan(core_faults=(CoreFault(0, after_ops=1),)),
            )


class TestFailedCallLeavesC:
    """A faulted call that raises leaves C exactly as it was passed in."""

    def test_functional_failure_restores_c(self):
        m, n, k = 2048, 32, 512
        rng = np.random.default_rng(0)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        c = np.zeros((m, n), np.float32)
        with pytest.raises(FaultError):
            ftimm_gemm(
                m, n, k, a=a, b=b, c=c, timing="none",
                faults=FaultPlan(seed=1, bitflip_rate=0.01,
                                 max_kernel_retries=0),
            )
        assert not c.any()

    def test_timed_failure_restores_c(self, operands):
        a, b = operands
        c0 = np.random.default_rng(1).standard_normal((M, N)).astype(
            np.float32
        )
        c = c0.copy()
        with pytest.raises(DmaTransferError):
            ftimm_gemm(
                M, N, K, a=a, b=b, c=c, timing="des",
                faults=FaultPlan(dma_fail_rate=1.0),
            )
        assert np.array_equal(c, c0)

    @pytest.mark.parametrize("impl, shape, strategy", [
        (ftimm_gemm, (8192, 16, 512), "m"),
        (ftimm_gemm, (64, 16, 16384), "k"),
        (tgemm_gemm, (512, 16, 512), "tgemm"),
    ], ids=["m", "k", "tgemm"])
    def test_non_finite_c0_raises_on_every_strategy(self, impl, shape,
                                                    strategy):
        """One rule under a fault plan: a NaN in C0 raises, whichever
        strategy runs, and C is left as it was passed in."""
        m, n, k = shape
        assert impl(m, n, k, timing="none").strategy == strategy
        rng = np.random.default_rng(0)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        c0 = rng.standard_normal((m, n)).astype(np.float32)
        c0[1, 2] = np.nan
        c = c0.copy()
        with pytest.raises(CorruptionError):
            impl(m, n, k, a=a, b=b, c=c, timing="none",
                 faults=FaultPlan(seed=1))
        assert np.array_equal(c, c0, equal_nan=True)


#: every shape class of the five serve mixes, once each
MIX_SHAPES = sorted({
    (c.shape.m, c.shape.n, c.shape.k)
    for make in MIXES.values() for c in make()
})
#: plans that cannot strike the functional phase
QUIET_PLANS = {
    "seed": FaultPlan(seed=5),
    "dma": FaultPlan(seed=6, dma_fail_rate=0.1),
    "ddr_window": FaultPlan(
        seed=7, ddr_degradation=(DegradationWindow(0.0, 1e-4, 0.5),)
    ),
    "after_s": FaultPlan(
        seed=8, core_faults=(CoreFault(core=1, after_s=1e-6),)
    ),
}


def quiet_call(m, n, k, strategy, a, b, c, plan):
    if strategy == "tgemm":
        result = tgemm_gemm(m, n, k, a=a, b=b, c=c, timing="none",
                            faults=plan)
    else:
        result = ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="none",
                            force_strategy=strategy, faults=plan)
    return result.faults, result.n_cores, result.strategy


def guarded_call(m, n, k, strategy, a, b, c, plan):
    """The guarded op list by hand: ``quiet_call``'s program, every closure
    run with the plan's first injector bound.  Returns what ``quiet_call``
    must return, or raises its error with C as passed in."""
    shape = GemmShape(m, n, k)
    cluster = default_machine().cluster
    if strategy == "tgemm":
        decision = TuningDecision(
            strategy="tgemm", tgemm_plan=TgemmPlan().validate(cluster),
            reason="baseline",
        )
    else:
        decision = tune(shape, cluster, force_strategy=strategy)
    program = lowered_program(shape, cluster, decision, functional=True)
    inj = FaultInjector(plan, 0)
    c_entry = c.copy()
    try:
        with program.ctx.binding(GemmOperands(a, b, c), faults=inj):
            run_functional(program, faults=inj)
    except FaultError:
        c[...] = c_entry
        raise
    report = FaultReport(seed=plan.seed, final_cores=cluster.n_cores)
    report.absorb(inj.counters)
    return report, cluster.n_cores, decision.strategy


def bits(c):
    return c.view(np.uint32)


def fault_counters(reg):
    return {name: entry["value"] for name, entry in reg.snapshot().items()
            if name.startswith("faults/") and name != "faults/quiet_replays"}


class TestCoreLossKeepsBits:
    """A core failure re-runs the same program, a survivor taking over the
    dead core's op stream: C is the fault-free full-cluster run's on
    every strategy, serve shape and failed core, and the DES finishes on
    the survivors."""

    @staticmethod
    def operands(m, n, k):
        rng = np.random.default_rng([m, n, k, 1])
        return tuple(
            rng.standard_normal(dims).astype(np.float32)
            for dims in ((m, k), (k, n), (m, n))
        )

    @pytest.mark.parametrize("core", [0, 7])
    @pytest.mark.parametrize("strategy", ["m", "k"])
    @pytest.mark.parametrize("shape", MIX_SHAPES + [
        (64, 16, 16384), (64, 64, 4096),
    ], ids=str)
    def test_after_ops_fault_keeps_bits(self, shape, strategy, core):
        a, b, c0 = self.operands(*shape)
        ref = c0.copy()
        clean = ftimm_gemm(*shape, a=a, b=b, c=ref, timing="none",
                           force_strategy=strategy)
        c = c0.copy()
        result = ftimm_gemm(
            *shape, a=a, b=b, c=c, timing="none", force_strategy=strategy,
            faults=FaultPlan(core_faults=(CoreFault(core, after_ops=1),)),
        )
        cluster = default_machine().cluster
        program = lowered_program(GemmShape(*shape), cluster, clean.decision)
        struck = len(program.core_ops[core]) > 1
        assert result.faults.core_failures == result.faults.redispatches \
            == int(struck)
        assert result.n_cores == cluster.n_cores - struck
        assert np.array_equal(bits(c), bits(ref))

    @pytest.mark.parametrize("strategy", ["m", "k"])
    @pytest.mark.parametrize("shape", MIX_SHAPES, ids=str)
    def test_after_s_fault_keeps_bits(self, shape, strategy):
        a, b, c0 = self.operands(*shape)
        ref = c0.copy()
        clean = ftimm_gemm(*shape, a=a, b=b, c=ref, timing="des",
                           force_strategy=strategy)
        c = c0.copy()
        result = ftimm_gemm(
            *shape, a=a, b=b, c=c, timing="des", force_strategy=strategy,
            faults=FaultPlan(core_faults=(
                CoreFault(0, after_s=clean.seconds / 8),
            )),
        )
        report = result.faults
        assert report.core_failures == report.redispatches == 1
        assert result.n_cores == 7
        assert 0.0 < report.lost_s < clean.seconds
        assert result.seconds > clean.seconds
        assert np.array_equal(bits(c), bits(ref))


class TestQuietAttempts:
    """A quiet attempt runs the clean path and gives exactly what the
    guarded op list gives: C bits and report, or the error and C0."""

    @staticmethod
    def operands(m, n, k):
        rng = np.random.default_rng([m, n, k])
        return tuple(
            rng.standard_normal(dims).astype(np.float32)
            for dims in ((m, k), (k, n), (m, n))
        )

    @pytest.mark.parametrize("plan", QUIET_PLANS.values(), ids=QUIET_PLANS)
    @pytest.mark.parametrize("strategy", ["m", "k", "tgemm"])
    @pytest.mark.parametrize("shape", MIX_SHAPES, ids=str)
    def test_matches_guarded_op_list(self, shape, strategy, plan):
        a, b, c0 = self.operands(*shape)
        c = c0.copy()
        with collecting() as reg:
            got = quiet_call(*shape, strategy, a, b, c, plan)
        assert not [name for name in reg.snapshot()
                    if name.startswith("faults/")]
        c_ref = c0.copy()
        assert got == guarded_call(*shape, strategy, a, b, c_ref, plan)
        assert np.array_equal(bits(c), bits(c_ref))

    def outcome(self, run, case, strategy):
        """``run`` on an edge case, warnings recorded: its error message
        (C must be C0 again), or C's bits and its return value."""
        m, n, k = 196, 32, 576
        a, b, c0 = self.operands(m, n, k)
        if case == "overflow":
            a[5, :] = 3e19  # finite, but row 5 of A @ B is not
            b[:, 3] = 3e19
        else:
            c0[37, 11] = {"nan": np.nan, "+inf": np.inf,
                          "-inf": -np.inf}[case]
        c = c0.copy()
        with warnings.catch_warnings(record=True) as caught, \
                collecting() as reg:
            warnings.simplefilter("always")
            try:
                returned = run(m, n, k, strategy, a, b, c, QUIET_PLANS["dma"])
            except CorruptionError as exc:
                assert np.array_equal(bits(c), bits(c0))
                got = str(exc)
            else:
                got = bits(c).tobytes(), returned
        return got, [(w.category, str(w.message)) for w in caught], reg

    @pytest.mark.parametrize("strategy", ["m", "k", "tgemm"])
    @pytest.mark.parametrize("case", ["nan", "+inf", "-inf", "overflow"])
    def test_non_finite_c_as_guarded(self, case, strategy):
        got, _warned, reg = self.outcome(quiet_call, case, strategy)
        want, _warned_ref, reg_ref = self.outcome(guarded_call, case,
                                                  strategy)
        assert got == want
        assert fault_counters(reg) == fault_counters(reg_ref)
        assert reg.counter("faults/quiet_replays").value == 1
        assert isinstance(got, str)

    @pytest.mark.parametrize("strategy", ["m", "k", "tgemm"])
    def test_no_extra_warnings(self, strategy):
        """An overflowing quiet attempt warns only as its guarded replay
        does: the clean run before it is silenced."""
        _got, warned, _reg = self.outcome(quiet_call, "overflow", strategy)
        _want, warned_ref, _reg_ref = self.outcome(guarded_call, "overflow",
                                                   strategy)
        assert warned_ref  # the guarded op list does warn here
        assert warned == warned_ref

    def test_f64_stays_guarded(self):
        """The float64 checksums of a finite float64 tile can overflow, so
        the guarded op list raises where the clean path gives a finite C:
        a float64 attempt is never run quiet."""
        m, n, k = 300, 24, 200
        rng = np.random.default_rng(3)
        a, b, c0 = (rng.standard_normal(d) for d in ((m, k), (k, n), (m, n)))
        c0[7, :2] = 1.5e308  # finite, but row 7 does not sum finite
        c = c0.copy()
        ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="none", dtype="f64")
        assert np.isfinite(c).all()
        c = c0.copy()
        with warnings.catch_warnings(), collecting() as reg:
            warnings.simplefilter("ignore")
            with pytest.raises(CorruptionError):
                ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="none",
                           dtype="f64", faults=FaultPlan(seed=1))
        assert reg.counter("executor/functional/flat").value == 0
        assert reg.counter("faults/quiet_replays").value == 0
        assert np.array_equal(c, c0)


class TestTracedFaultedCall:
    PLAN = FaultPlan(core_faults=(CoreFault(core=2, after_s=1e-6,
                                            after_ops=3),))

    def run(self, operands):
        a, b = operands
        c = np.zeros((M, N), np.float32)
        result = ftimm_gemm(M, N, K, a=a, b=b, c=c, timing="des",
                            faults=self.PLAN)
        return c, result

    def test_one_gemm_scope_holds_phases_and_redispatches(self, operands):
        with tracing() as tr:
            c, result = self.run(operands)
        assert result.faults.redispatches == 2  # functional and DES
        (gemm,) = [s for s in tr.spans if s.category == "gemm"]
        subtree, frontier = set(), [gemm.span_id]
        while frontier:
            kids = [s.span_id for s in tr.children(frontier.pop())]
            subtree.update(kids)
            frontier.extend(kids)
        phases = {s.name for s in tr.spans
                  if s.category == "phase" and s.span_id in subtree}
        assert phases == {"functional", "timed/des"}
        marks = [s for s in tr.spans if s.category == "redispatch"]
        assert len(marks) == 2
        assert all(s.span_id in subtree for s in marks)

        c_plain, plain = self.run(operands)
        assert np.array_equal(c, c_plain)
        assert result.seconds == plain.seconds
        assert result.faults == plain.faults


class TestTimedFaults:
    def test_dma_retries_cost_simulated_time(self):
        clean = ftimm_gemm(M, N, K, timing="des")
        faulted = ftimm_gemm(
            M, N, K, timing="des",
            faults=FaultPlan(seed=0, dma_fail_rate=0.2),
        )
        report = faulted.faults
        assert report.dma_retries > 0
        assert report.dma_retry_s > 0.0
        assert faulted.seconds > clean.seconds

    def test_degradation_window_slows_ddr(self):
        clean = ftimm_gemm(M, N, K, timing="des")
        degraded = ftimm_gemm(
            M, N, K, timing="des",
            faults=FaultPlan(
                ddr_degradation=(DegradationWindow(0.0, 1.0, 0.25),)
            ),
        )
        assert degraded.seconds > clean.seconds

    def test_exhausted_dma_retries_raise_typed(self):
        with pytest.raises(DmaTransferError) as info:
            ftimm_gemm(
                M, N, K, timing="des", faults=FaultPlan(dma_fail_rate=1.0)
            )
        # the simulated time of the give-up, as the message states it
        exc = info.value
        assert exc.at_s > 0.0
        assert f"t={exc.at_s:.3e}s" in str(exc)


class TestInputValidation:
    def test_non_array(self):
        with pytest.raises(InputError):
            ftimm_gemm(4, 4, 4, a=[[1.0]], b=np.zeros((4, 4), np.float32),
                       c=np.zeros((4, 4), np.float32), timing="none")

    def test_non_2d(self):
        with pytest.raises(InputError):
            ftimm_gemm(
                4, 4, 4, a=np.zeros(16, np.float32),
                b=np.zeros((4, 4), np.float32),
                c=np.zeros((4, 4), np.float32), timing="none",
            )

    def test_wrong_dtype(self):
        with pytest.raises(InputError):
            ftimm_gemm(
                4, 4, 4, a=np.zeros((4, 4), np.float64),
                b=np.zeros((4, 4), np.float32),
                c=np.zeros((4, 4), np.float32), timing="none",
            )

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            ftimm_gemm(
                4, 4, 4, a=np.zeros((4, 5), np.float32),
                b=np.zeros((4, 4), np.float32),
                c=np.zeros((4, 4), np.float32), timing="none",
            )

    def test_nonfinite_rejected(self):
        a = np.zeros((4, 4), np.float32)
        b = np.zeros((4, 4), np.float32)
        c = np.zeros((4, 4), np.float32)
        a[1, 2] = np.nan
        with pytest.raises(InputError):
            ftimm_gemm(4, 4, 4, a=a, b=b, c=c, timing="none")
        a[1, 2] = 0.0
        b[0, 0] = np.inf
        with pytest.raises(InputError):
            ftimm_gemm(4, 4, 4, a=a, b=b, c=c, timing="none")


class TestChaosSweep:
    def test_default_shapes_tune_as_documented(self):
        """The grid holds the strategies ``DEFAULT_SHAPES``' comment names,
        K-parallel included, so the core-loss scenario covers its fixed
        reduction order."""
        want = {(96, 32, 128): "m", (24, 8, 256): "m", (24, 8, 2048): "k",
                (64, 96, 64): "m"}
        assert sorted(DEFAULT_SHAPES) == sorted(want)
        for shape, strategy in want.items():
            assert ftimm_gemm(*shape, timing="none").strategy == strategy

    def test_mini_sweep_no_silence(self):
        summary = chaos_sweep(
            shapes=((24, 8, 64),),
            rates=(1e-2,),
            seeds=range(2),
            impls=("ftimm",),
            core_failures=True,
            timed_probe=False,
        )
        assert summary.ok
        assert summary.silent == []
        counts = summary.counts()
        assert sum(counts.values()) == len(summary.outcomes) > 0
        assert "SILENT" not in summary.describe() or counts.get(
            "silent", 0
        ) == 0
