"""Workloads from the paper's motivation: K-means, CNN im2col, FEM.

* :mod:`repro.workloads.kmeans` — Lloyd K-means whose distance step is a
  type-1 GEMM.
* :mod:`repro.workloads.convnets` — convolution layers lowered to im2col
  GEMMs (VGG16, ResNet-18).
* :mod:`repro.workloads.fem` — batched finite-element operator
  applications.
* :mod:`repro.workloads.transformer` — per-head attention GEMMs.
* :mod:`repro.workloads.generators` — random operands and the reference
  result.
"""
