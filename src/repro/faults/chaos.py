"""Chaos harness: prove faulted GEMMs are bit-correct or fail loudly.

The end-to-end robustness contract of :mod:`repro.faults` is *no silent
wrong answers*: a run under any fault plan either

* completes with a result **bit-identical** to the fault-free run of the
  same configuration (recoveries hidden, their cost reported), or
* raises a typed :class:`~repro.errors.ReproError` (retry budgets
  exhausted, last core lost).

:func:`chaos_sweep` checks that contract over a grid of shapes, fault
rates and seeds.  Every scenario, core loss included, is held to the one
fault-free run of its (impl, shape, seed): a core failure re-runs the
same program with a survivor taking over the dead core's op stream, so
the partition and K-parallel's reduction order do not move.

``benchmarks/chaos_smoke.py`` wraps this as the CI gate; the ``repro
chaos`` CLI exposes it interactively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from .inject import FaultReport
from .plan import CoreFault, FaultPlan

#: (m, n, k) grid: ftIMM tunes (96, 32, 128), (24, 8, 256) and
#: (64, 96, 64) to M-parallel and (24, 8, 2048) to K-parallel, and the
#: "tgemm" impl runs each as TGEMM.  K stays moderate so the ABFT
#: tolerance stays far below the smallest injectable corruption.
DEFAULT_SHAPES = ((96, 32, 128), (24, 8, 256), (24, 8, 2048), (64, 96, 64))


@dataclass
class ChaosOutcome:
    """One faulted run, classified."""

    shape: tuple[int, int, int]
    impl: str
    seed: int
    scenario: str
    #: "clean" (nothing injected), "recovered" (faults injected, bits
    #: exact), "failed" (typed error — acceptable), or "silent"
    #: (wrong bits returned — the contract violation)
    status: str
    error: str = ""
    report: FaultReport | None = None

    @property
    def ok(self) -> bool:
        return self.status != "silent"


@dataclass
class ChaosSummary:
    """Aggregate of one sweep; ``ok`` is the CI gate."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def silent(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for o in self.outcomes:
            out[o.status] = out.get(o.status, 0) + 1
        return out

    def describe(self) -> str:
        c = self.counts()
        total = len(self.outcomes)
        recovered_faults = sum(
            o.report.recovered_faults for o in self.outcomes if o.report
        )
        line = (
            f"chaos: {total} runs — "
            f"{c.get('clean', 0)} clean, "
            f"{c.get('recovered', 0)} recovered, "
            f"{c.get('failed', 0)} failed loudly, "
            f"{c.get('silent', 0)} SILENT; "
            f"{recovered_faults} individual faults survived"
        )
        for o in self.silent:
            line += (
                f"\n  SILENT CORRUPTION: {o.impl} {o.shape} "
                f"seed={o.seed} scenario={o.scenario}"
            )
        return line


def _operands(shape, dtype, seed):
    m, n, k = shape
    np_dtype = np.float64 if dtype == "f64" else np.float32
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np_dtype)
    b = rng.standard_normal((k, n)).astype(np_dtype)
    c = rng.standard_normal((m, n)).astype(np_dtype)
    return a, b, c


def _gemm(impl, shape, *, a, b, c, dtype, **kw):
    from ..core.ftimm import ftimm_gemm, tgemm_gemm  # lazy: avoids cycle

    m, n, k = shape
    if impl == "tgemm":
        return tgemm_gemm(m, n, k, a=a, b=b, c=c, timing="none", **kw)
    return ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="none", dtype=dtype, **kw)


def _baseline(impl, shape, dtype, seed):
    """Bits of the fault-free run."""
    a, b, c = _operands(shape, dtype, seed)
    _gemm(impl, shape, a=a, b=b, c=c, dtype=dtype)
    return c


def chaos_sweep(
    *,
    shapes=DEFAULT_SHAPES,
    rates=(1e-3, 1e-2),
    seeds=range(4),
    impls=("ftimm", "tgemm"),
    dtype: str = "f32",
    core_failures: bool = True,
    timed_probe: bool = True,
) -> ChaosSummary:
    """Run the sweep; every outcome is classified, none skipped silently.

    Scenarios per (impl, shape, seed): one bit-flip plan per rate, and —
    when ``core_failures`` — a mid-run core loss combined with the
    highest rate.  ``timed_probe`` adds one DES run per impl with DMA
    failures and a DDR degradation window, checking the timed path
    completes (or fails loudly) under injection and costs the retries
    in simulated time.
    """
    summary = ChaosSummary()
    for impl in impls:
        for shape in shapes:
            for seed in seeds:
                ref = _baseline(impl, shape, dtype, seed)
                for rate in rates:
                    plan = FaultPlan(seed=seed, bitflip_rate=rate)
                    summary.outcomes.append(
                        _one_run(impl, shape, dtype, seed, plan, ref,
                                 scenario=f"bitflip@{rate:g}")
                    )
                if core_failures:
                    plan = FaultPlan(
                        seed=seed,
                        bitflip_rate=max(rates),
                        core_faults=(CoreFault(core=0, after_ops=3),),
                    )
                    summary.outcomes.append(
                        _one_run(impl, shape, dtype, seed, plan, ref,
                                 scenario="core-loss+bitflips")
                    )
        if timed_probe:
            summary.outcomes.append(_timed_probe(impl, shapes[0], dtype))
    return summary


def _one_run(impl, shape, dtype, seed, plan, ref, scenario) -> ChaosOutcome:
    a, b, c = _operands(shape, dtype, seed)
    try:
        result = _gemm(impl, shape, a=a, b=b, c=c, dtype=dtype, faults=plan)
    except ReproError as exc:
        return ChaosOutcome(
            shape=shape, impl=impl, seed=seed, scenario=scenario,
            status="failed", error=f"{type(exc).__name__}: {exc}",
        )
    report = result.faults
    if np.array_equal(c, ref):
        status = "recovered" if (report and report.recovered_faults) else "clean"
        return ChaosOutcome(
            shape=shape, impl=impl, seed=seed, scenario=scenario,
            status=status, report=report,
        )
    return ChaosOutcome(
        shape=shape, impl=impl, seed=seed, scenario=scenario,
        status="silent", report=report,
    )


def _timed_probe(impl, shape, dtype) -> ChaosOutcome:
    """DES under DMA failures + a DDR brown-out: completes or fails loudly."""
    from ..core.ftimm import ftimm_gemm, tgemm_gemm  # lazy: avoids cycle
    from .plan import DegradationWindow

    m, n, k = shape
    plan = FaultPlan(
        seed=7,
        dma_fail_rate=5e-3,
        ddr_degradation=(DegradationWindow(0.0, 1e-4, 0.25),),
    )
    fn = tgemm_gemm if impl == "tgemm" else ftimm_gemm
    kw = {} if impl == "tgemm" else {"dtype": dtype}
    try:
        result = fn(m, n, k, timing="des", faults=plan, **kw)
    except ReproError as exc:
        return ChaosOutcome(
            shape=shape, impl=impl, seed=7, scenario="timed-probe",
            status="failed", error=f"{type(exc).__name__}: {exc}",
        )
    report = result.faults
    status = "recovered" if (report and report.recovered_faults) else "clean"
    return ChaosOutcome(
        shape=shape, impl=impl, seed=7, scenario="timed-probe",
        status=status, report=report,
    )
