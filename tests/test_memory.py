"""Memory spaces: bump allocation, capacity enforcement, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, CapacityError
from repro.hw.memory import MemKind, MemorySpace


def space(capacity=4096, alignment=64):
    return MemorySpace("test", MemKind.AM, capacity, alignment)


class TestAlloc:
    def test_simple_alloc(self):
        sp = space()
        buf = sp.alloc((8, 8), np.float32, label="t")
        assert buf.nbytes >= 8 * 8 * 4
        assert buf.offset == 0
        assert sp.used == buf.nbytes

    def test_alloc_backed_gives_zeroed_array(self):
        arena = np.zeros(4096, np.uint8)
        sp = MemorySpace("test", MemKind.AM, 4096, arena=arena)
        sp.alloc((2, 2))
        buf = sp.alloc((4, 4))
        assert buf.array().shape == (4, 4)
        assert np.all(buf.array() == 0)
        assert np.shares_memory(buf.array(), arena[buf.offset:buf.end])

    def test_alloc_unbacked_array_raises(self):
        buf = space().alloc((4, 4))
        with pytest.raises(AllocationError):
            buf.array()

    def test_alignment_rounding(self):
        sp = space(alignment=64)
        buf = sp.alloc((1, 1), np.float32)  # 4 bytes -> 64
        assert buf.nbytes == 64

    def test_offsets_do_not_overlap(self):
        sp = space()
        bufs = [sp.alloc((4, 4)) for _ in range(8)]
        spans = sorted((b.offset, b.end) for b in bufs)
        for (o1, e1), (o2, _e2) in zip(spans, spans[1:]):
            assert e1 <= o2

    def test_capacity_exceeded_raises(self):
        sp = space(capacity=256)
        with pytest.raises(CapacityError):
            sp.alloc((100, 100))

    def test_capacity_exact_fit_allowed(self):
        sp = space(capacity=256)
        buf = sp.alloc((8, 8), np.float32)  # exactly 256 B
        assert buf.nbytes == 256
        assert sp.free_bytes == 0

    def test_negative_extent_rejected(self):
        with pytest.raises(AllocationError):
            space().alloc((-1, 4))

    def test_dtype_respected(self):
        buf = space().alloc((4, 4), np.float64)
        assert buf.nbytes >= 4 * 4 * 8

    def test_peak_used_tracks_high_water(self):
        sp = space()
        sp.alloc((8, 8))
        sp.alloc((8, 8))
        assert sp.peak_used == sp.used == 2 * 256

    def test_offsets_bump_past_the_last_tile(self):
        sp = space()
        a = sp.alloc((1, 3))      # 12 B -> 64
        b = sp.alloc((8, 8))      # 256 B
        c = sp.alloc((0, 4))      # empty -> 64
        assert (a.offset, b.offset, c.offset) == (0, 64, 320)
        assert sp.used == 384

    def test_failed_alloc_leaves_space_unchanged(self):
        sp = space(capacity=512)
        sp.alloc((8, 8))
        with pytest.raises(CapacityError):
            sp.alloc((9, 8))      # 288 B > 256 B left
        assert sp.used == 256
        assert sp.alloc((8, 8)).offset == 256


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            MemorySpace("x", MemKind.AM, 0)

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(CapacityError):
            MemorySpace("x", MemKind.AM, 128, alignment=48)


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(0, 90), st.integers(0, 90)), max_size=40
    ),
    alignment=st.sampled_from([1, 4, 64, 256]),
)
def test_allocator_invariants(shapes, alignment):
    """Random alloc sequences, some past capacity.

    Invariants: each offset is the running aligned sum of the tiles
    before it; ``peak_used == used``; a failed alloc changes nothing.
    """
    sp = MemorySpace("prop", MemKind.AM, 16 * 1024, alignment)
    end = 0
    for rows, cols in shapes:
        rounded = max(-(-rows * cols * 4 // alignment) * alignment, alignment)
        if end + rounded > sp.capacity:
            with pytest.raises(CapacityError):
                sp.alloc((rows, cols), np.float32)
        else:
            buf = sp.alloc((rows, cols), np.float32)
            assert (buf.offset, buf.nbytes) == (end, rounded)
            end += rounded
        assert sp.used == sp.peak_used == end
        assert sp.free_bytes == sp.capacity - end
