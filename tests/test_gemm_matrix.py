"""The big correctness matrix: driver x precision x buffering x cores.

Every combination the library exposes must compute ``C += A @ B``; this
file sweeps the cross-product on one representative shape per driver so a
regression anywhere in the lowering/executor stack cannot hide behind an
untested combination.
"""

import numpy as np
import pytest

from repro.core.blocking import KPlan, MPlan
from repro.core.ftimm import ftimm_gemm
from repro.core.lowering import GemmOperands
from repro.core.parallel_k import build_parallel_k
from repro.core.parallel_m import build_parallel_m
from repro.core.shapes import GemmShape
from repro.executor.functional import run_functional
from repro.hw.config import default_machine

M_SHAPE = GemmShape(500, 32, 300)   # M-parallel territory
K_SHAPE = GemmShape(32, 32, 2500)   # K-parallel territory


def operands(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    np_dt = np.float32 if dtype == "f32" else np.float64
    a = rng.standard_normal((shape.m, shape.k)).astype(np_dt)
    b = rng.standard_normal((shape.k, shape.n)).astype(np_dt)
    c = rng.standard_normal((shape.m, shape.n)).astype(np_dt)
    ref = (c.astype(np.float64) + a.astype(np.float64) @ b.astype(np.float64))
    return a, b, c, ref.astype(np_dt)


def check(c, ref, dtype, k):
    tol = (1e-5 * max(8, k)) if dtype == "f32" else 1e-10 * max(8, k)
    np.testing.assert_allclose(c, ref, rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("pingpong", [True, False])
@pytest.mark.parametrize("builder_name", ["m", "k"])
def test_driver_matrix(cluster, registry, builder_name, pingpong, dtype):
    shape = M_SHAPE if builder_name == "m" else K_SHAPE
    a, b, c, ref = operands(shape, dtype)
    data = GemmOperands.check(shape, a, b, c, dtype=dtype)
    if builder_name == "m":
        plan = MPlan(n_g=48, n_a=48, dtype=dtype) if dtype == "f64" else MPlan()
        ex = build_parallel_m(
            shape, cluster, plan=plan, registry=registry,
            pingpong=pingpong, bindable=True,
        )
    else:
        plan = (
            KPlan(n_g=48, n_a=48, m_a=512, m_g=512, k_a=448, m_s=8, dtype="f64")
            if dtype == "f64" else KPlan()
        )
        ex = build_parallel_k(
            shape, cluster, plan=plan, registry=registry,
            pingpong=pingpong, bindable=True,
        )
    with ex.ctx.binding(data):
        run_functional(ex)
    check(c, ref, dtype, shape.k)


@pytest.mark.parametrize("cores", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("strategy", ["m", "k"])
def test_core_count_matrix(strategy, cores):
    shape = M_SHAPE if strategy == "m" else K_SHAPE
    a, b, c, ref = operands(shape, "f32", seed=cores)
    ftimm_gemm(
        shape.m, shape.n, shape.k,
        a=a, b=b, c=c, cores=cores, force_strategy=strategy, timing="none",
    )
    check(c, ref, "f32", shape.k)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("timing", ["des", "analytic"])
def test_timing_mode_matrix(dtype, timing):
    shape = GemmShape(4096, 32, 256)
    result = ftimm_gemm(
        shape.m, shape.n, shape.k, timing=timing, dtype=dtype
    )
    assert result.seconds > 0
    peak = default_machine().cluster.peak_flops * (1.0 if dtype == "f32" else 0.5)
    assert result.gflops * 1e9 <= peak


def test_des_and_analytic_agree_for_f64(cluster):
    des = ftimm_gemm(4096, 32, 256, timing="des", dtype="f64")
    ana = ftimm_gemm(4096, 32, 256, timing="analytic", dtype="f64")
    assert ana.seconds == pytest.approx(des.seconds, rel=0.2)
