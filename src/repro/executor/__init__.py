"""Executors: three ways to run a lowered plan.

* :func:`~repro.executor.functional.run_functional` — compute the real
  result (correctness).
* :func:`~repro.executor.timed.run_timed` — discrete-event timing with
  DMA/compute overlap and bandwidth contention.
* :mod:`~repro.executor.analytic` — closed-form timing for huge shapes.

A DES run under :func:`repro.obs.tracing` records its kernel, DMA and
sync spans into the ambient :class:`~repro.obs.trace.Tracer`.
"""
