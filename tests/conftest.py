"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lowering import GemmOperands
from repro.core.plans import OpKind
from repro.core.shapes import GemmShape
from repro.hw.config import default_machine
from repro.kernels.registry import registry_for


@pytest.fixture(scope="session")
def machine():
    return default_machine()


@pytest.fixture(scope="session")
def cluster(machine):
    return machine.cluster


@pytest.fixture(scope="session")
def core(cluster):
    return cluster.core


@pytest.fixture(scope="session")
def registry(core):
    """Session-wide kernel cache: scheduling is the slow part of tests."""
    return registry_for(core)


def make_operands(shape: GemmShape, seed: int = 0):
    """Random float32 operands + the float64-accurate reference."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((shape.m, shape.k)).astype(np.float32)
    b = rng.standard_normal((shape.k, shape.n)).astype(np.float32)
    c = rng.standard_normal((shape.m, shape.n)).astype(np.float32)
    ref = (
        c.astype(np.float64) + a.astype(np.float64) @ b.astype(np.float64)
    ).astype(np.float32)
    return GemmOperands.check(shape, a, b, c), ref


def assert_gemm_close(c, ref, k):
    """float32 accumulation tolerance scaled with the reduction depth."""
    tol = 1e-5 * max(8.0, float(k))
    np.testing.assert_allclose(c, ref, rtol=tol, atol=tol)


def kernel_cycles_by_core(execution) -> list[int]:
    """Oracle: the kernel cycles each core's op stream issues."""
    return [
        sum(op.cycles for op in ops if op.kind is OpKind.KERNEL)
        for ops in execution.core_ops
    ]


def pingpong_uniform(n: int, load_s: float, compute_s: float) -> float:
    """Oracle: finish time of ``n`` double-buffered (load -> compute)
    iterations of equal length."""
    if n <= 0:
        return 0.0
    return load_s + compute_s + (n - 1) * max(load_s, compute_s)
