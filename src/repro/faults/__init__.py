"""Fault injection + resilient execution for the simulated FT-m7032.

Submodules:

* :mod:`repro.faults.plan` — :class:`~repro.faults.plan.FaultPlan` (with
  ``CoreFault`` and ``DegradationWindow``), the declarative, seeded
  description of what can go wrong during one GEMM.
* :mod:`repro.faults.inject` — :class:`~repro.faults.inject.FaultInjector`,
  per-attempt execution state: deterministic injection decisions plus the
  recovery guards (read-back verified copies, ABFT-checked kernels); and
  :class:`~repro.faults.inject.FaultReport`, what a resilient run survived
  and what surviving cost, attached to
  :class:`~repro.core.ftimm.GemmResult`.
* :mod:`repro.faults.chaos` — :func:`~repro.faults.chaos.chaos_sweep`, the
  harness asserting the end-to-end contract: every faulted run is
  bit-correct or raises a typed :class:`~repro.errors.ReproError`, never
  silently wrong.
"""
