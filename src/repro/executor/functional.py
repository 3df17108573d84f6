"""Functional execution of a lowered plan.

The reference semantics replay every op's closure in global emission
order (``Op.seq``).  The drivers emit in the sequential order of the
paper's algorithms, so this computes the exact blocked result — including
TGEMM's implicit padding, the K-parallel partial-sum reduction, and every
edge/remainder tile — while the capacity checks already happened at
lowering time.

A clean call (no fault injector, NumPy kernels) of a cached program runs
its *flat program* instead: the kernels alone, compiled once from the op
list by :meth:`~repro.core.lowering.LoweringContext.compile_flat`, reading
A and B in place and accumulating straight into C, with consecutive
tiles stacked into one matmul.  Tile shapes and each C element's
accumulation order are the op list's, so C is bit-identical to the
replay.  A float32 attempt under a fault plan that cannot strike it is
clean here too: :func:`~repro.core.ftimm._run` binds no injector for it.
Attempts that bit flips or an op-counted core fault can strike, ISA
kernel modes, K-parallel programs and any program the compiler cannot
prove equal keep the op list.

This is the path the correctness tests drive: for random shapes,
``run_functional`` must reproduce ``C + A @ B`` to float32 accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.plans import GemmExecution
from ..obs.registry import current as _obs_current


@dataclass
class FunctionalReport:
    """What happened during a functional replay."""

    ops_executed: int
    dma_ops: int
    kernel_ops: int
    sync_ops: int
    bytes_moved: int
    flops: int
    #: how KERNEL closures computed ("numpy", "compiled" or "interp")
    kernel_exec: str = "numpy"


def run_functional(execution: GemmExecution, faults=None) -> FunctionalReport:
    """Run the plan; the C operand bound to it is updated.

    ``faults`` (a :class:`~repro.faults.inject.FaultInjector`) arms the
    core-failure model for this mode: before each op runs, the executed-op
    count of the core hosting it (:meth:`~repro.faults.inject
    .FaultInjector.host`: its own, or a survivor for a dead core) is
    checked against the armed fault, raising
    :class:`~repro.errors.CoreFailureError` once it trips.  Tile-level
    corruption is injected inside the closures themselves (the lowering
    context routes copies and kernel applications through the injector's
    guards), so a replay either computes the exact blocked result or
    raises — never returns silently wrong data.

    The report's ``kernel_exec`` is the mode bound for this run; the
    report is the op list's census whichever path ran.
    """
    ctx = execution.ctx
    metrics = _obs_current()
    flat = ()
    if faults is None and execution.cached and ctx.can_run_flat():
        flat = execution.flat
        if flat is None:
            flat = execution.flat = ctx.compile_flat(execution.ordered_ops())
            if not flat and metrics is not None:
                metrics.counter("executor/functional/flat_fallbacks").inc()
    if flat:
        ctx.run_flat(flat)
    else:
        ops_done = [0] * execution.cluster.n_cores
        for op in execution.ordered_ops():
            if faults is not None:
                core = faults.host(op.core)
                faults.check_core_alive_functional(core, ops_done[core])
                ops_done[core] += 1
            if op.run is not None:
                op.run()
    if metrics is not None:
        metrics.counter(
            "executor/functional/" + ("flat" if flat else "oplist")
        ).inc()
    return FunctionalReport(
        **execution.census(),
        kernel_exec=ctx.kernel_exec if ctx is not None else "numpy",
    )
