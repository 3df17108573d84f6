"""Workloads: K-means, im2col convolution, FEM batches — each routed
through the simulated ftIMM and checked against plain NumPy."""

import numpy as np
import pytest

from repro.core.ftimm import ftimm_gemm
from repro.core.shapes import GemmType
from repro.workloads.convnets import (
    ConvLayer,
    RESNET18_LAYERS,
    VGG16_LAYERS,
    conv2d_direct,
    conv2d_im2col,
    im2col,
)
from repro.workloads.fem import (
    FemOperator,
    STANDARD_OPERATORS,
    lagrange_basis_1d,
)
from repro.workloads.generators import random_operands, reference_result
from repro.workloads.kmeans import (
    blob_dataset,
    kmeans_gemm_shape,
    lloyd_kmeans,
    numpy_gemm,
)


def ftimm_gemm_fn(a, b, c):
    """GemmFn adapter running the simulated ftIMM functionally."""
    m, k = a.shape
    n = b.shape[1]
    ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="none")


class TestKMeans:
    def test_shapes_are_type1_irregular(self):
        shape = kmeans_gemm_shape(100_000, 16, 8)
        assert shape.classify() is GemmType.TALL_SKINNY_TIMES_SMALL

    def test_clusters_recovered_on_blobs(self):
        x, _true = blob_dataset(600, 8, 4, seed=3)
        result = lloyd_kmeans(x, 4, seed=3)
        # Lloyd may hit a local optimum, but must beat the single-cluster
        # inertia by a wide margin on well-separated blobs
        single = float(((x - x.mean(axis=0)) ** 2).sum())
        assert result.inertia < 0.5 * single
        assert len(np.unique(result.labels)) == 4

    def test_ftimm_and_numpy_agree(self):
        x, _ = blob_dataset(500, 8, 4, seed=5)
        r_np = lloyd_kmeans(x, 4, gemm=numpy_gemm, seed=5)
        r_ft = lloyd_kmeans(x, 4, gemm=ftimm_gemm_fn, seed=5)
        np.testing.assert_array_equal(r_np.labels, r_ft.labels)
        np.testing.assert_allclose(r_np.centroids, r_ft.centroids, rtol=1e-4)

    def test_gemm_shapes_recorded(self):
        x, _ = blob_dataset(300, 8, 4)
        result = lloyd_kmeans(x, 4)
        assert result.gemm_shapes
        assert all(s.m == 300 and s.n == 4 and s.k == 8 for s in result.gemm_shapes)

    def test_converges_before_max_iter(self):
        x, _ = blob_dataset(400, 4, 3, seed=1)
        result = lloyd_kmeans(x, 3, max_iter=50, seed=1)
        assert result.iterations < 50


class TestConvnets:
    def test_first_layers_are_irregular(self):
        shape = VGG16_LAYERS[0].gemm_shape(batch=1)
        assert shape.m > 10_000 and shape.n <= 96
        assert shape.classify() is GemmType.TALL_SKINNY_TIMES_SMALL

    def test_deep_layers_grow_k(self):
        first = VGG16_LAYERS[0].gemm_shape()
        last = VGG16_LAYERS[-1].gemm_shape()
        assert last.k > first.k
        assert last.m < first.m

    def test_layer_tables_consistent(self):
        for layer in VGG16_LAYERS + RESNET18_LAYERS:
            assert layer.h_out > 0
            shape = layer.gemm_shape()
            assert shape.n == layer.c_out

    def test_im2col_shape(self):
        layer = ConvLayer("t", 3, 8, 8, 3, 1, 1)
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        cols = im2col(x, layer)
        assert cols.shape == (2 * 8 * 8, 3 * 9)

    def test_im2col_rejects_mismatched_input(self):
        layer = ConvLayer("t", 3, 8, 8, 3)
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 4, 8, 8), np.float32), layer)

    def test_conv_via_gemm_matches_direct(self):
        rng = np.random.default_rng(7)
        layer = ConvLayer("t", 3, 8, 10, 3, 1, 1)
        x = rng.standard_normal((2, 3, 10, 10)).astype(np.float32)
        w = rng.standard_normal((8, 3, 3, 3)).astype(np.float32)
        out_gemm = conv2d_im2col(x, w, layer)
        out_direct = conv2d_direct(x, w, layer)
        np.testing.assert_allclose(out_gemm, out_direct, rtol=1e-3, atol=1e-4)

    def test_conv_via_simulated_ftimm(self):
        rng = np.random.default_rng(8)
        layer = ConvLayer("t", 4, 16, 6, 3, 1, 1)
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        w = rng.standard_normal((16, 4, 3, 3)).astype(np.float32)
        out_ft = conv2d_im2col(x, w, layer, gemm=ftimm_gemm_fn)
        out_np = conv2d_im2col(x, w, layer)
        np.testing.assert_allclose(out_ft, out_np, rtol=1e-4, atol=1e-4)

    def test_strided_conv(self):
        rng = np.random.default_rng(9)
        layer = ConvLayer("t", 2, 4, 9, 3, 2, 1)
        x = rng.standard_normal((1, 2, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            conv2d_im2col(x, w, layer),
            conv2d_direct(x, w, layer),
            rtol=1e-3, atol=1e-4,
        )


class TestFem:
    def test_operator_shapes_are_tall_skinny(self):
        for op in STANDARD_OPERATORS:
            shape = op.gemm_shape()
            assert shape.m >= 100_000
            assert shape.n <= 96

    def test_interpolation_via_ftimm(self):
        rng = np.random.default_rng(3)
        dofs = rng.standard_normal((640, 8)).astype(np.float32)
        basis = rng.standard_normal((8, 24)).astype(np.float32)
        out = np.zeros((640, 24), dtype=np.float32)
        ftimm_gemm_fn(dofs, basis, out)
        np.testing.assert_allclose(out, dofs @ basis, rtol=1e-4, atol=1e-4)

    def test_lagrange_partition_of_unity(self):
        pts = np.linspace(0, 1, 11)
        basis = lagrange_basis_1d(3, pts)
        np.testing.assert_allclose(basis.sum(axis=0), 1.0, atol=1e-5)

    def test_lagrange_interpolates_nodes(self):
        nodes = np.linspace(0, 1, 4)
        basis = lagrange_basis_1d(3, nodes)
        np.testing.assert_allclose(basis, np.eye(4), atol=1e-5)

    def test_fem_operator_dataclass(self):
        op = FemOperator("x", 1000, 8, 27)
        assert op.gemm_shape().flops == 2 * 1000 * 27 * 8


class TestGenerators:
    def test_random_operands_shapes(self):
        from repro.core.shapes import GemmShape

        a, b, c = random_operands(GemmShape(10, 20, 30), seed=1)
        assert a.shape == (10, 30) and b.shape == (30, 20) and c.shape == (10, 20)
        assert a.dtype == np.float32

    def test_c_zero_option(self):
        from repro.core.shapes import GemmShape

        _a, _b, c = random_operands(GemmShape(4, 4, 4), c_zero=True)
        assert np.all(c == 0)

    def test_reference_result_float64_accumulation(self):
        from repro.core.shapes import GemmShape

        a, b, c = random_operands(GemmShape(8, 8, 8), seed=2)
        ref = reference_result(a, b, c)
        np.testing.assert_allclose(ref, c + a @ b, rtol=1e-5)
