"""Comparators: the roofline ceiling (Fig. 5) and the OpenBLAS-on-CPU
model (Fig. 7)."""

from .cpu_openblas import CpuGemmEstimate, kernel_efficiency, openblas_sgemm, threads_used
from .roofline import RooflinePoint, ridge_intensity, roofline

__all__ = [
    "CpuGemmEstimate",
    "RooflinePoint",
    "kernel_efficiency",
    "openblas_sgemm",
    "ridge_intensity",
    "roofline",
    "threads_used",
]
