"""Executors: three ways to run a lowered plan.

* :func:`~repro.executor.functional.run_functional` — compute the real
  result (correctness).
* :func:`~repro.executor.timed.run_timed` — discrete-event timing with
  DMA/compute overlap and bandwidth contention.
* :mod:`~repro.executor.analytic` — closed-form timing for huge shapes.

A DES run under :func:`repro.obs.tracing` records its kernel, DMA and
sync spans into the ambient :class:`~repro.obs.trace.Tracer`.
"""

from .analytic import (
    analytic_parallel_k,
    analytic_parallel_m,
    analytic_tgemm,
    busiest_core_chunks,
    pingpong_seq,
    pingpong_uniform,
)
from .functional import FunctionalReport, run_functional
from .timed import TimedResult, run_timed

__all__ = [
    "FunctionalReport",
    "TimedResult",
    "analytic_parallel_k",
    "analytic_parallel_m",
    "analytic_tgemm",
    "busiest_core_chunks",
    "pingpong_seq",
    "pingpong_uniform",
    "run_functional",
    "run_timed",
]
