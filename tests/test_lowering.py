"""Lowering utilities: blocking iterators, operand checks, tile context."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lowering import (
    GemmOperands,
    LoweringContext,
    block_ranges,
)
from repro.core.shapes import GemmShape
from repro.errors import CapacityError, PlanError
from repro.hw.memory import MemKind


class TestBlockRanges:
    def test_exact_division(self):
        assert list(block_ranges(12, 4)) == [(0, 0, 4), (1, 4, 4), (2, 8, 4)]

    def test_remainder(self):
        assert list(block_ranges(10, 4)) == [(0, 0, 4), (1, 4, 4), (2, 8, 2)]

    def test_block_bigger_than_total(self):
        assert list(block_ranges(3, 10)) == [(0, 0, 3)]

    def test_zero_total(self):
        assert list(block_ranges(0, 4)) == []

    def test_invalid_block_rejected(self):
        with pytest.raises(PlanError):
            list(block_ranges(10, 0))

    @given(total=st.integers(0, 10_000), block=st.integers(1, 512))
    def test_property_partition(self, total, block):
        """Blocks tile [0, total) exactly, in order, without overlap."""
        ranges = list(block_ranges(total, block))
        assert sum(extent for _i, _s, extent in ranges) == total
        cursor = 0
        for idx, (i, start, extent) in enumerate(ranges):
            assert i == idx
            assert start == cursor
            assert 1 <= extent <= block
            cursor += extent


class TestGemmOperands:
    def test_valid(self):
        shape = GemmShape(4, 5, 6)
        a = np.zeros((4, 6), np.float32)
        b = np.zeros((6, 5), np.float32)
        c = np.zeros((4, 5), np.float32)
        ops = GemmOperands.check(shape, a, b, c)
        assert ops.a is a

    @pytest.mark.parametrize("bad", ["a", "b", "c"])
    def test_shape_mismatch_rejected(self, bad):
        shape = GemmShape(4, 5, 6)
        arrays = {
            "a": np.zeros((4, 6), np.float32),
            "b": np.zeros((6, 5), np.float32),
            "c": np.zeros((4, 5), np.float32),
        }
        arrays[bad] = np.zeros((3, 3), np.float32)
        with pytest.raises(PlanError):
            GemmOperands.check(shape, arrays["a"], arrays["b"], arrays["c"])

    def test_wrong_dtype_rejected(self):
        shape = GemmShape(2, 2, 2)
        f64 = np.zeros((2, 2), np.float64)
        f32 = np.zeros((2, 2), np.float32)
        with pytest.raises(PlanError):
            GemmOperands.check(shape, f64, f32, f32)


class TestLoweringContext:
    def make(self, cluster, shape=GemmShape(64, 32, 64)):
        return LoweringContext(cluster, shape)

    def test_unbacked_by_default(self, cluster):
        ctx = self.make(cluster)
        assert not ctx.backed
        bufs = ctx.alloc(MemKind.AM, 0, 8, 8, "t")
        assert len(bufs) == 1
        assert bufs[0].data is None

    def test_backed_with_data(self, cluster):
        shape = GemmShape(4, 4, 4)
        z = np.zeros((4, 4), np.float32)
        data = GemmOperands.check(shape, z, z.copy(), z.copy())
        ctx = LoweringContext(cluster, shape, bindable=True)
        assert ctx.backed
        buf = ctx.alloc(MemKind.AM, 0, 8, 8, "t")[0]
        assert buf.data is not None
        with ctx.binding(data):
            assert ctx.data is data
        assert ctx.data is None

    def test_ping_pong_slots(self, cluster):
        ctx = self.make(cluster)
        bufs = ctx.alloc(MemKind.SM, 2, 4, 16, "A_s", slots=2)
        assert len(bufs) == 2
        assert bufs[0].offset != bufs[1].offset

    def test_capacity_enforced_per_core(self, cluster):
        ctx = self.make(cluster)
        with pytest.raises(CapacityError):
            ctx.alloc(MemKind.SM, 0, 1024, 1024, "too-big")

    def test_copy_closures_none_when_unbacked(self, cluster):
        ctx = self.make(cluster)
        buf = ctx.alloc(MemKind.AM, 0, 4, 4, "t")[0]
        assert ctx.load(buf, "a", 0, 0, 2, 2, 0) is None
        assert ctx.unload(buf, 0, 0, 2, 2, 0) is None

    def test_copy_closures_move_data(self, cluster):
        shape = GemmShape(4, 4, 4)
        a = np.arange(16, dtype=np.float32).reshape(4, 4)
        z = np.zeros((4, 4), np.float32)
        data = GemmOperands.check(shape, a, z.copy(), z.copy())
        ctx = LoweringContext(cluster, shape, bindable=True)
        buf = ctx.alloc(MemKind.AM, 0, 4, 4, "t")[0]
        with ctx.binding(data):
            ctx.load(buf, "a", 1, 2, 2, 2, 0)()
            np.testing.assert_array_equal(buf.array()[:2, :2], a[1:3, 2:4])
            ctx.unload(buf, 2, 0, 2, 2, 0)()
        np.testing.assert_array_equal(data.c[2:4, 0:2], a[1:3, 2:4])

    def test_split_rows_even(self, cluster):
        ctx = self.make(cluster)
        parts = ctx.split_rows(80)
        assert len(parts) == cluster.n_cores
        assert sum(e for _c, _s, e in parts) == 80
        extents = [e for _c, _s, e in parts]
        assert max(extents) - min(extents) <= 1

    def test_split_rows_fewer_than_cores(self, cluster):
        parts = self.make(cluster).split_rows(3)
        assert len(parts) == 3
        assert all(e == 1 for _c, _s, e in parts)

    def test_split_rows_contiguous(self, cluster):
        parts = self.make(cluster).split_rows(37)
        cursor = 0
        for _core, start, extent in parts:
            assert start == cursor
            cursor += extent
        assert cursor == 37
