"""Analytic lower bounds for the autotuner's pruned plan search.

The autotuner (:mod:`repro.core.autotune`) scores every candidate plan
with the closed-form timing model.  Each score is cheap in principle, but
it pulls the candidate's micro-kernels through the registry — modulo
scheduling on a cold cache — so scoring a ~53-candidate grid costs real
wall time.

:func:`plan_bound` gives every candidate a *kernel-free* floor on the
analytic time, built from the two resources no plan can cheat: the
busiest core's DDR byte count over its bandwidth share, and its FMAC work
at per-core peak (plus the per-kernel call overhead, which is what sinks
small-``k_a`` plans).  The bound mirrors the byte accounting of
:mod:`repro.executor.analytic` term by term, so ``bound <= analytic
seconds`` holds by construction (and is asserted over a shape grid in
``tests/test_plan_search.py``).  Best-first search orders candidates by
bound and stops expanding once the next bound exceeds the incumbent
finalist set — a pure *search-order* optimization: the selected plan is
bit-identical to exhaustive search (tested).  :class:`SearchStats`
records what a search did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanError
from ..hw.config import ClusterConfig
from .shapes import GemmShape

#: guard against float-association drift between the bound and the model:
#: the bound is scaled down by this factor before any pruning comparison.
_BOUND_SAFETY = 1.0 - 1e-9


# ---------------------------------------------------------------------------
# analytic lower bounds
# ---------------------------------------------------------------------------


class _FloorKernel:
    """A stand-in kernel reporting the cycle floor no real kernel beats."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: float) -> None:
        self.cycles = cycles


class _FloorRegistry:
    """Registry shim: kernels cost call overhead + MACs at per-core peak.

    A generated kernel's cycle count is ``kernel_call_overhead_cycles``
    plus its scheduled blocks, and the blocks must issue ``2*ms*nc*kc``
    flops through FMAC units that retire at most ``fma_lanes_per_cycle *
    flops_per_lane`` flops per cycle — so ``overhead + flops/ppc`` is a
    floor on every kernel the generator can emit (FP64 kernels have half
    the lanes, so the FP32 floor still under-estimates them).
    """

    def __init__(self, core) -> None:
        self._overhead = core.kernel_call_overhead_cycles
        self._ppc = core.fma_lanes_per_cycle * core.flops_per_lane

    def _floor(self, ms: int, nc: int, kc: int) -> _FloorKernel:
        return _FloorKernel(self._overhead + 2.0 * ms * nc * kc / self._ppc)

    def ftimm(self, ms: int, nc: int, kc: int, dtype: str = "f32") -> _FloorKernel:
        return self._floor(ms, nc, kc)

    def tgemm(self, ms: int, nc: int, kc: int) -> _FloorKernel:
        return self._floor(ms, nc, kc)


def plan_bound(
    shape: GemmShape, cluster: ClusterConfig, strategy: str, plan
) -> float:
    """A kernel-free lower bound on the candidate's analytic time.

    Runs the *actual* closed-form model (:mod:`repro.executor.analytic`)
    with every micro-kernel replaced by its cycle floor
    (:class:`_FloorRegistry`).  The model is monotone non-decreasing in
    kernel cycles (sums, maxes and the two-slot ping-pong recurrence),
    so ``plan_bound(...) <= analytic seconds`` for the same (shape, plan)
    by construction — asserted across a shape grid in the tests.  Pure
    arithmetic: the expensive part of scoring (kernel generation +
    modulo scheduling) never runs.
    """
    from ..executor.analytic import analytic_parallel_k, analytic_parallel_m

    shim = _FloorRegistry(cluster.core)
    if strategy == "m":
        t = analytic_parallel_m(shape, cluster, plan, shim)
    elif strategy == "k":
        t = analytic_parallel_k(shape, cluster, plan, shim)
    else:
        raise PlanError(f"no bound for strategy {strategy!r}")
    return t.seconds * _BOUND_SAFETY


# ---------------------------------------------------------------------------
# search statistics
# ---------------------------------------------------------------------------


@dataclass
class SearchStats:
    """What the search actually did (the CLI report + the counters)."""

    mode: str = "pruned"            # "pruned" | "exhaustive"
    generated: int = 0              # candidate plans in the grid
    bound_evals: int = 0            # lower bounds computed
    scored: int = 0                 # candidates fully scored (analytic)
    pruned: int = 0                 # generated - scored
    des_validated: int = 0          # finalists (+ rule) re-scored by DES
    #: (candidates scored so far, label, analytic seconds) at each
    #: incumbent improvement — the trajectory the CLI report prints
    trajectory: list[tuple[int, str, float]] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"generated {self.generated}, bound-pruned {self.pruned}, "
            f"scored {self.scored}, DES-validated {self.des_validated}"
        )
