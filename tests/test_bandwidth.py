"""Processor-sharing bandwidth channels: exact fluid-flow behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hw.bandwidth import LocalChannel, SharedChannel
from repro.hw.event_sim import Simulator


def run_flows(flows, bandwidth=100.0, cap=None):
    """flows: list of (start_time, nbytes); returns completion times."""
    sim = Simulator()
    ch = SharedChannel(sim, bandwidth, "t", per_flow_cap=cap)
    done = {}

    def finished(i):
        done[i] = sim.now

    for i, (start, nbytes) in enumerate(flows):
        sim.schedule(start, lambda i: ch.transfer(flows[i][1], finished, i), i)
    sim.run()
    return done, ch


class TestSharedChannel:
    def test_single_flow_full_bandwidth(self):
        done, _ = run_flows([(0.0, 500.0)])
        assert done[0] == pytest.approx(5.0)

    def test_two_equal_flows_share_evenly(self):
        done, _ = run_flows([(0.0, 500.0), (0.0, 500.0)])
        assert done[0] == pytest.approx(10.0)
        assert done[1] == pytest.approx(10.0)

    def test_late_arrival_exact_fluid_solution(self):
        # a: 1000 B at t=0; b: 500 B at t=5.  a has 500 left at t=5,
        # both then get 50 B/s -> both finish at t=15.
        done, _ = run_flows([(0.0, 1000.0), (5.0, 500.0)])
        assert done[0] == pytest.approx(15.0)
        assert done[1] == pytest.approx(15.0)

    def test_small_flow_departs_then_big_speeds_up(self):
        # a: 1000 at t=0, b: 100 at t=0: b done at t=2 (50 B/s),
        # a then has 900 - ... a served 100 by t=2, 900 left at 100 B/s
        # -> done at t=11.
        done, _ = run_flows([(0.0, 1000.0), (0.0, 100.0)])
        assert done[1] == pytest.approx(2.0)
        assert done[0] == pytest.approx(11.0)

    def test_zero_byte_transfer_completes_immediately(self):
        done, _ = run_flows([(1.0, 0.0)])
        assert done[0] == pytest.approx(1.0)

    def test_negative_bytes_rejected(self):
        sim = Simulator()
        ch = SharedChannel(sim, 10.0)
        with pytest.raises(SimulationError):
            ch.transfer(-1, print)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(SimulationError):
            SharedChannel(Simulator(), 0.0)

    def test_stats_bytes_served(self):
        done, ch = run_flows([(0.0, 300.0), (0.0, 200.0)])
        assert ch.stats.bytes_served == pytest.approx(500.0)
        assert ch.stats.flows_completed == 2

    def test_mean_concurrency(self):
        _done, ch = run_flows([(0.0, 500.0), (0.0, 500.0)])
        assert ch.stats.mean_concurrency() == pytest.approx(2.0)


class TestPerFlowCap:
    def test_single_flow_capped(self):
        done, _ = run_flows([(0.0, 500.0)], bandwidth=100.0, cap=25.0)
        assert done[0] == pytest.approx(20.0)

    def test_cap_irrelevant_under_contention(self):
        # 5 flows of 100 at bw=100: fair share 20 < cap 25 -> share rules
        done, _ = run_flows([(0.0, 100.0)] * 5, bandwidth=100.0, cap=25.0)
        assert all(t == pytest.approx(5.0) for t in done.values())

    def test_cap_binds_for_few_flows(self):
        done, _ = run_flows([(0.0, 100.0)] * 2, bandwidth=100.0, cap=25.0)
        assert all(t == pytest.approx(4.0) for t in done.values())

    def test_invalid_cap_rejected(self):
        with pytest.raises(SimulationError):
            SharedChannel(Simulator(), 10.0, per_flow_cap=0.0)


class TestLocalChannel:
    def test_fixed_rate_no_contention(self):
        sim = Simulator()
        ch = LocalChannel(sim, 50.0)
        done = []
        for _ in range(2):
            ch.transfer(100.0, lambda _arg: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_negative_rejected(self):
        sim = Simulator()
        ch = LocalChannel(sim, 50.0)
        with pytest.raises(SimulationError):
            ch.transfer(-5, print)


@settings(max_examples=40, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.floats(0.0, 10.0, allow_nan=False),
            st.floats(1.0, 1000.0, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_conservation_and_work_bound(flows):
    """The channel conserves bytes and never beats the capacity bound.

    Completion of the whole batch cannot precede total_bytes / bandwidth
    after the first arrival, and every flow finishes.
    """
    bandwidth = 100.0
    done, ch = run_flows(flows, bandwidth=bandwidth)
    assert len(done) == len(flows)
    first = min(start for start, _b in flows)
    total = sum(b for _s, b in flows)
    finish = max(done.values())
    assert finish >= first + total / bandwidth - 1e-6
    assert ch.stats.bytes_served == pytest.approx(total, rel=1e-6)
    # no flow finishes before its own solo transfer time
    for i, (start, nbytes) in enumerate(flows):
        assert done[i] >= start + nbytes / bandwidth - 1e-6
