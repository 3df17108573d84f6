"""Comparators: the roofline ceiling (Fig. 5, :mod:`repro.baselines.roofline`)
and the OpenBLAS-on-CPU model (Fig. 7, :mod:`repro.baselines.cpu_openblas`)."""
