"""ftIMM's top-level entry points.

:func:`ftimm_gemm` reproduces the library call the paper describes: given
an irregular-shaped single-precision GEMM, dynamically choose the
parallelization strategy and block sizes, generate/select micro-kernels,
and execute — here on the simulated FT-m7032 cluster, returning both the
numerical result (when operands are supplied) and the modeled performance.

:func:`tgemm_gemm` is the traditional baseline under the identical
interface, and :func:`gemm` dispatches between them.

Timing modes:

* ``"des"``      — discrete-event simulation (exact overlap/contention);
* ``"analytic"`` — closed-form composition (for huge shapes);
* ``"auto"``     — DES when the lowered plan is small enough, else
  analytic (the two agree within tolerance on their overlap domain).

Lowering is compile-once: :func:`lowered_program` keeps each
``(shape, cluster, strategy, plan)`` program in a process-wide LRU, and a
call binds its operands, fault injector and kernel mode to the cached
program for the duration of its functional run (see
:mod:`repro.core.lowering`).  The DES reads the same program unbound.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from ..errors import CoreFailureError, FaultError, PlanError
from ..executor.analytic import (
    analytic_parallel_k,
    analytic_parallel_m,
    analytic_tgemm,
)
from ..executor.functional import FunctionalReport, run_functional
from ..executor.timed import TimedResult, run_timed
from ..faults.inject import FaultInjector, FaultReport
from ..faults.plan import FaultPlan
from ..hw.config import ClusterConfig, MachineConfig, default_machine
from ..kernels.registry import registry_for
from ..obs.registry import current as _obs_current
from ..obs.trace import current_tracer, maybe_scope
from .blocking import TgemmPlan
from .lowering import GemmOperands
from .parallel_k import build_parallel_k
from .parallel_m import build_parallel_m
from .plans import GemmExecution
from .shapes import GemmShape
from .tgemm import build_tgemm
from .tuner import Strategy, TuningDecision, tune

TimingMode = Literal["auto", "des", "analytic", "none"]

#: above roughly this many ops (:func:`estimate_ops`), "auto" timing
#: switches from DES to analytic and autotune skips DES validation.
DES_OP_LIMIT = 60_000

#: bound on the ops all cached programs hold together.  An op costs about
#: 0.23 KB timing-only and 0.7 KB with its functional closures, so a full
#: cache holds at most ~45 MB; the paper's irregular grid keeps all 18 of
#: its programs (~37k ops) resident, with room to spare.
_PROGRAM_CACHE_OPS = 64_000

#: (shape, cluster, strategy, plan) -> lowered program, oldest first
_programs: OrderedDict[tuple, GemmExecution] = OrderedDict()
_cached_ops = 0


@dataclass
class GemmResult:
    """Outcome of one (simulated) GEMM call."""

    shape: GemmShape
    strategy: str
    decision: TuningDecision | None
    timing: TimedResult | None
    functional: FunctionalReport | None
    timing_mode: str
    n_cores: int
    #: set whenever a fault plan was supplied — what the run survived and
    #: what surviving cost (all-zero when the plan injected nothing)
    faults: FaultReport | None = None

    @property
    def seconds(self) -> float:
        if self.timing is None:
            raise PlanError("no timing was requested (timing_mode='none')")
        return self.timing.seconds

    @property
    def gflops(self) -> float:
        return self.timing.gflops if self.timing else 0.0

    @property
    def efficiency(self) -> float:
        return self.timing.efficiency if self.timing else 0.0


def estimate_ops(shape: GemmShape, strategy: str, plan) -> int:
    """Rough lowered-op count of ``plan``, checked against
    :data:`DES_OP_LIMIT` before a DES run."""
    if strategy == "m":
        kernels = (
            math.ceil(shape.m / plan.m_s)
            * math.ceil(shape.k / plan.k_a)
            * math.ceil(shape.n / plan.n_a)
        )
    elif strategy == "k":
        kernels = math.ceil(shape.m / plan.m_s) * math.ceil(shape.k / plan.k_a)
    else:
        kernels = (
            math.ceil(shape.m / plan.m_s)
            * math.ceil(shape.k / plan.k_g)
            * math.ceil(shape.n / plan.n_a)
        )
    return 2 * kernels + 16


def lowered_program(
    shape: GemmShape,
    cluster: ClusterConfig,
    decision: TuningDecision,
    *,
    functional: bool = False,
) -> GemmExecution:
    """The lowered program of ``decision`` for ``shape`` on ``cluster``.

    The one lowering entry point.  Programs come from a process-wide LRU
    bounded by :data:`_PROGRAM_CACHE_OPS` total ops (a program larger
    than the bound is lowered and not kept).  ``functional=True`` asks
    for the late-bound closures a functional run needs: a program cached
    for timing only is then lowered again with them and replaces it (a
    miss); a program with closures serves timing as well.  Programs are
    shared: treat them as read-only, and bind operands with
    :meth:`~repro.core.lowering.LoweringContext.binding` on ``.ctx``.
    """
    global _cached_ops
    key = (shape, cluster, decision.strategy, decision.plan)
    metrics = _obs_current()
    program = _programs.get(key)
    if program is not None and (program.ctx.backed or not functional):
        _programs.move_to_end(key)
        if metrics is not None:
            metrics.counter("core/lowering/hits").inc()
        return program
    if metrics is not None:
        metrics.counter("core/lowering/misses").inc()
    if program is not None:
        del _programs[key]
        _cached_ops -= program.n_ops
    if decision.strategy == "m":
        program = build_parallel_m(
            shape, cluster, plan=decision.m_plan, adjust=False,
            bindable=functional,
        )
    elif decision.strategy == "k":
        program = build_parallel_k(
            shape, cluster, plan=decision.k_plan, adjust=False,
            bindable=functional,
        )
    else:
        program = build_tgemm(
            shape, cluster, plan=decision.tgemm_plan, bindable=functional
        )
    if program.n_ops > _PROGRAM_CACHE_OPS:
        return program
    program.cached = True
    _programs[key] = program
    _cached_ops += program.n_ops
    while _cached_ops > _PROGRAM_CACHE_OPS:
        _key, evicted = _programs.popitem(last=False)
        _cached_ops -= evicted.n_ops
        if metrics is not None:
            metrics.counter("core/lowering/evictions").inc()
    return program


def clear_programs() -> None:
    """Drop every cached program (tests and cold-start measurements)."""
    global _cached_ops
    _programs.clear()
    _cached_ops = 0


def _analytic(
    shape: GemmShape,
    cluster: ClusterConfig,
    decision: TuningDecision,
) -> TimedResult:
    registry = registry_for(cluster.core)
    if decision.strategy == "m":
        return analytic_parallel_m(shape, cluster, decision.m_plan, registry)
    if decision.strategy == "k":
        return analytic_parallel_k(shape, cluster, decision.k_plan, registry)
    return analytic_tgemm(shape, cluster, decision.tgemm_plan, registry)


def _redispatch(
    run,
    phase: str,
    cluster: ClusterConfig,
    *,
    plan: FaultPlan | None,
    report: FaultReport | None,
):
    """Call ``run(injector)`` until no core fails.

    ``plan=None`` is one attempt with no injector.  Under a plan, a
    :class:`~repro.errors.CoreFailureError` marks the failed core dead
    and retries the *same* program with the next attempt's injector, in
    which each dead core's op stream runs on a survivor (round-robin
    over the survivors).  The partition, and so K-parallel's reduction
    tree and C's bits, stay the fault-free run's.  A plan's
    ``core_faults`` arm one failure per attempt, so the loop always
    terminates; the last core's failure, like every other
    :class:`~repro.errors.FaultError`, propagates.  Returns the last
    attempt's result, the live-core count and the simulated seconds the
    failed attempts ran before failing.
    """
    if plan is None:
        return run(None), cluster.n_cores, 0.0
    dead: list[int] = []
    attempt, lost_s = 0, 0.0
    while True:
        live = [c for c in range(cluster.n_cores) if c not in dead]
        hosts = {d: live[i % len(live)] for i, d in enumerate(sorted(dead))}
        inj = FaultInjector(plan, attempt, hosts)
        try:
            out = run(inj)
        except CoreFailureError as exc:
            report.absorb(inj.counters)
            if len(live) <= 1:
                raise
            report.redispatches += 1
            tracer = current_tracer()
            if tracer is not None:
                tracer.instant(
                    f"re-dispatch ({phase})",
                    at_s=lost_s + exc.at_s,
                    category="redispatch",
                    track="gemm",
                    args={"attempt": attempt, "lost_s": exc.at_s,
                          "error": str(exc)},
                )
            lost_s += exc.at_s
            dead.append(exc.core)
            attempt += 1
        else:
            report.absorb(inj.counters)
            return out, len(live), lost_s


def _run(
    shape: GemmShape,
    cluster: ClusterConfig,
    decision: TuningDecision,
    *,
    a: np.ndarray | None,
    b: np.ndarray | None,
    c: np.ndarray | None,
    timing: TimingMode,
    dtype: str = "f32",
    kernel_exec: str = "numpy",
    faults: FaultPlan | None = None,
) -> GemmResult:
    """Run a tuned GEMM: the functional phase, then the timing phase.

    ``faults=None`` is the clean path: one attempt per phase, no C
    snapshot, no :class:`~repro.faults.inject.FaultReport`.  A fault plan
    arms injection, and both phases re-run the same program on core
    failure, a survivor taking over each dead core's op stream
    (:func:`_redispatch`): the functional phase restores C before each
    retry, the DES phase adds the failed attempts' simulated time to the
    result.  Timing ``"auto"`` resolves to DES under a plan, since
    injection acts on simulated transfers and cores, which the analytic
    closed forms cannot see.  A faulted call that raises a
    :class:`~repro.errors.FaultError` leaves C as it was passed in.

    A functional attempt nothing can strike
    (:attr:`~repro.faults.inject.FaultInjector.functional_quiet`) on
    float32 operands runs the clean path instead of the guarded op list.
    With A and B finite, every guard fires only on a non-finite tile
    value, and such a value survives into the final C.  So a finite C
    holds the guarded run's bits and an all-zero report; a non-finite C
    is restored and the attempt replayed under guard, which raises the
    guarded run's error (counted in ``faults/quiet_replays``).  Float64
    attempts stay guarded: the float64 checksums of a finite float64 tile
    can overflow.
    """
    data = None
    if a is not None or b is not None or c is not None:
        if a is None or b is None or c is None:
            raise PlanError("provide all of a, b, c or none of them")
        data = GemmOperands.check(shape, a, b, c, dtype=dtype)

    mode = timing
    if mode == "auto":
        mode = ("des" if faults is not None
                or estimate_ops(shape, decision.strategy, decision.plan)
                <= DES_OP_LIMIT
                else "analytic")
    if mode not in ("des", "analytic", "none"):
        raise PlanError(f"unknown timing mode {timing!r}")
    report = None if faults is None else FaultReport(seed=faults.seed)
    snapshot = None if faults is None or data is None else data.c.copy()

    def functional(program, inj):
        if inj is not None and inj.attempt:
            data.c[...] = snapshot  # undo the failed attempt's writes
        if inj is not None and inj.functional_quiet and dtype == "f32":
            # a quiet attempt runs the clean path; a finite C is the
            # guarded op list's, anything else is replayed under guard
            with np.errstate(over="ignore", invalid="ignore"), \
                    program.ctx.binding(data, kernel_exec=kernel_exec):
                out = run_functional(program)
            if np.isfinite(data.c).all():
                return out
            data.c[...] = snapshot
            metrics = _obs_current()
            if metrics is not None:
                metrics.counter("faults/quiet_replays").inc()
        with program.ctx.binding(data, faults=inj, kernel_exec=kernel_exec):
            return run_functional(program, faults=inj)

    n_cores = cluster.n_cores
    func_report = timed = None
    with maybe_scope(
        f"gemm {shape.m}x{shape.n}x{shape.k}",
        category="gemm",
        track="gemm",
        args={"strategy": decision.strategy},
    ) as gscope:
        try:
            if data is not None:
                with maybe_scope("functional", category="phase",
                                 track="gemm"):
                    program = lowered_program(shape, cluster, decision,
                                              functional=True)
                    func_report, n_cores, _ = _redispatch(
                        lambda inj: functional(program, inj), "functional",
                        cluster, plan=faults, report=report,
                    )
            if mode == "des":
                with maybe_scope("timed/des", category="phase", track="gemm"):
                    program = lowered_program(shape, cluster, decision)
                    timed, live, lost_s = _redispatch(
                        lambda inj: run_timed(program, faults=inj), "timed",
                        cluster, plan=faults, report=report,
                    )
                n_cores = min(n_cores, live)
                if lost_s:
                    # the honest wall clock: work thrown away before each
                    # failure plus the completed run on the survivors
                    timed = replace(timed, seconds=timed.seconds + lost_s)
                    report.lost_s = lost_s
            elif mode == "analytic":
                with maybe_scope("timed/analytic", category="phase",
                                 track="gemm"):
                    timed = _analytic(shape, cluster, decision)
        except FaultError:
            if snapshot is not None:
                data.c[...] = snapshot
            raise

        if gscope is not None:
            gscope.args["timing_mode"] = mode
            if timed is not None:
                # modeled extent, anchored at the tracer's sim offset
                gscope.sim_start_s = 0.0
                gscope.sim_end_s = timed.seconds
                gscope.args["modeled_s"] = timed.seconds

    if report is not None:
        report.final_cores = n_cores
    return GemmResult(
        shape=shape,
        strategy=decision.strategy,
        decision=decision,
        timing=timed,
        functional=func_report,
        timing_mode=mode,
        n_cores=n_cores,
        faults=report,
    )


def ftimm_gemm(
    m: int,
    n: int,
    k: int,
    *,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    c: np.ndarray | None = None,
    machine: MachineConfig | None = None,
    cores: int | None = None,
    timing: TimingMode = "auto",
    force_strategy: Strategy | None = None,
    adjust: bool = True,
    dtype: str = "f32",
    kernel_exec: str = "numpy",
    faults: FaultPlan | None = None,
) -> GemmResult:
    """Run ``C += A @ B`` with ftIMM on the simulated GPDSP cluster.

    With operands the numerical result is computed in ``c`` (in place);
    timing is always modeled unless ``timing='none'``.  ``cores`` restricts
    the cluster (scalability experiments); ``adjust=False`` disables the
    dynamic block adjusting (ablation); ``force_strategy`` pins the
    parallelization strategy; ``dtype="f64"`` runs the double-precision
    extension (N <= 48, float64 operands).  ``kernel_exec`` selects how
    functional kernels compute: ``"numpy"`` (fast), or
    ``"compiled"``/``"interp"`` for ISA-fidelity execution of the
    generated instruction streams.

    ``faults`` arms seeded fault injection with resilient execution: the
    run either completes with the exact blocked result (recoveries and
    their cost reported in ``result.faults``) or raises a typed
    :class:`~repro.errors.FaultError` — never a silent wrong answer.
    """
    shape = GemmShape(m, n, k)
    cluster = (machine or default_machine()).cluster
    if cores is not None:
        cluster = cluster.with_cores(cores)
    decision = tune(
        shape, cluster, force_strategy=force_strategy, adjust=adjust,
        dtype=dtype,
    )
    return _run(
        shape, cluster, decision, a=a, b=b, c=c, timing=timing, dtype=dtype,
        kernel_exec=kernel_exec, faults=faults,
    )


def tgemm_gemm(
    m: int,
    n: int,
    k: int,
    *,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    c: np.ndarray | None = None,
    machine: MachineConfig | None = None,
    cores: int | None = None,
    timing: TimingMode = "auto",
    kernel_exec: str = "numpy",
    faults: FaultPlan | None = None,
) -> GemmResult:
    """Run ``C += A @ B`` with the traditional TGEMM implementation."""
    shape = GemmShape(m, n, k)
    cluster = (machine or default_machine()).cluster
    if cores is not None:
        cluster = cluster.with_cores(cores)
    decision = TuningDecision(
        strategy="tgemm",
        tgemm_plan=TgemmPlan().validate(cluster),
        reason="baseline",
    )
    return _run(
        shape, cluster, decision, a=a, b=b, c=c, timing=timing,
        kernel_exec=kernel_exec, faults=faults,
    )


def gemm(
    m: int,
    n: int,
    k: int,
    *,
    impl: Literal["ftimm", "tgemm"] = "ftimm",
    **kwargs,
) -> GemmResult:
    """Dispatch to :func:`ftimm_gemm` or :func:`tgemm_gemm`."""
    if impl == "ftimm":
        return ftimm_gemm(m, n, k, **kwargs)
    if impl == "tgemm":
        return tgemm_gemm(m, n, k, **kwargs)
    raise PlanError(f"unknown impl {impl!r}")
