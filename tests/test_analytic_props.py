"""Property tests for the analytic executor's building blocks.

``pingpong_seq`` is checked against a brute-force event simulation of the
two-slot pipeline, and ``busiest_core_chunks`` against exhaustive dealing.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.analytic import busiest_core_chunks, pingpong_seq

from conftest import pingpong_uniform


def brute_force_two_slot(pairs):
    """Reference semantics: loads through a serial engine into 2 slots,
    compute serial, compute(i) needs load(i), load(i) needs slot free
    (compute(i-2) done)."""
    n = len(pairs)
    load_done = [0.0] * n
    comp_done = [0.0] * n
    for i, (load, comp) in enumerate(pairs):
        engine_free = load_done[i - 1] if i >= 1 else 0.0
        slot_free = comp_done[i - 2] if i >= 2 else 0.0
        load_done[i] = max(engine_free, slot_free) + load
        comp_free = comp_done[i - 1] if i >= 1 else 0.0
        comp_done[i] = max(load_done[i], comp_free) + comp
    return comp_done[-1] if pairs else 0.0


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.floats(0.0, 100.0, allow_nan=False),
            st.floats(0.0, 100.0, allow_nan=False),
        ),
        max_size=20,
    )
)
def test_pingpong_seq_matches_brute_force(pairs):
    assert pingpong_seq(pairs) == pytest.approx(
        brute_force_two_slot(pairs), rel=1e-12, abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 50),
    load=st.floats(0.0, 50.0, allow_nan=False),
    comp=st.floats(0.0, 50.0, allow_nan=False),
)
def test_pingpong_uniform_matches_seq(n, load, comp):
    assert pingpong_uniform(n, load, comp) == pytest.approx(
        pingpong_seq([(load, comp)] * n), rel=1e-9, abs=1e-9
    )


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.floats(0.0, 100.0, allow_nan=False),
            st.floats(0.0, 100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_pingpong_bounds(pairs):
    """max(total_load, total_compute) <= pingpong <= serial sum."""
    t = pingpong_seq(pairs)
    loads = sum(p[0] for p in pairs)
    comps = sum(p[1] for p in pairs)
    assert t >= max(loads, comps) - 1e-9
    assert t <= loads + comps + 1e-9


@settings(max_examples=150, deadline=None)
@given(
    total=st.integers(0, 5000),
    block=st.integers(1, 300),
    n_cores=st.integers(1, 8),
)
def test_busiest_core_chunks_matches_exhaustive(total, block, n_cores):
    n_chunks = math.ceil(total / block)
    per_core: dict[int, list[int]] = {c: [] for c in range(n_cores)}
    for idx in range(n_chunks):
        last = idx == n_chunks - 1
        size = total - idx * block if last else block
        per_core[idx % n_cores].append(size)
    expected = (
        max(per_core.values(), key=lambda ch: (sum(ch), len(ch)))
        if n_chunks
        else []
    )
    assert busiest_core_chunks(total, block, n_cores) == expected
