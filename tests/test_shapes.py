"""Shape taxonomy (Section III-A)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.shapes import GemmShape, GemmType
from repro.errors import ShapeError


class TestClassification:
    @pytest.mark.parametrize(
        "m,n,k",
        [(65536, 32, 32), (2**22, 32, 32), (20480, 96, 96), (65536, 8, 8)],
    )
    def test_type1_tall_skinny_times_small(self, m, n, k):
        assert GemmShape(m, n, k).classify() is GemmType.TALL_SKINNY_TIMES_SMALL

    @pytest.mark.parametrize(
        "m,n,k", [(32, 32, 65536), (32, 32, 2**22), (96, 96, 20480), (8, 8, 65536)]
    )
    def test_type2_skinny_tall(self, m, n, k):
        assert GemmShape(m, n, k).classify() is GemmType.SKINNY_TALL_TIMES_TALL

    @pytest.mark.parametrize(
        "m,n,k", [(20480, 32, 20480), (16384, 96, 20480), (4096, 8, 4096)]
    )
    def test_type3_regular_times_tall_skinny(self, m, n, k):
        assert GemmShape(m, n, k).classify() is GemmType.REGULAR_TIMES_TALL_SKINNY

    @pytest.mark.parametrize(
        "m,n,k", [(4096, 4096, 4096), (512, 512, 512), (20480, 128, 20480), (64, 64, 64)]
    )
    def test_regular(self, m, n, k):
        assert GemmShape(m, n, k).classify() is GemmType.REGULAR

    def test_is_irregular(self):
        assert GemmShape(65536, 32, 32).classify() is not GemmType.REGULAR
        assert GemmShape(512, 512, 512).classify() is GemmType.REGULAR


class TestProperties:
    def test_flops(self):
        assert GemmShape(2, 3, 4).flops == 48

    def test_bytes(self):
        s = GemmShape(10, 20, 30)
        assert s.a_bytes == 4 * 300
        assert s.b_bytes == 4 * 600
        assert s.c_bytes == 4 * 200
        assert s.total_bytes == s.a_bytes + s.b_bytes + 2 * s.c_bytes

    def test_arithmetic_intensity(self):
        s = GemmShape(1024, 32, 32)
        assert s.arithmetic_intensity == pytest.approx(
            s.flops / s.total_bytes
        )

    def test_str(self):
        assert str(GemmShape(1, 2, 3)) == "1x2x3"

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-5, 1, 1)])
    def test_invalid_dims_rejected(self, dims):
        with pytest.raises(ShapeError):
            GemmShape(*dims)


@given(
    m=st.integers(1, 10**7),
    n=st.integers(1, 512),
    k=st.integers(1, 10**7),
)
def test_classification_total_and_consistent(m, n, k):
    """Every positive shape classifies, and wide-N is always regular."""
    shape = GemmShape(m, n, k)
    kind = shape.classify()
    assert isinstance(kind, GemmType)
    if n > 96:
        assert kind is GemmType.REGULAR
    assert shape.flops == 2 * m * n * k
