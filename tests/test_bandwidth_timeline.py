"""DDR bandwidth timeline recording and the ext_bandwidth experiment."""

import pytest

from repro.core.parallel_m import build_parallel_m
from repro.core.shapes import GemmShape
from repro.executor.timed import run_timed
from repro.hw.bandwidth import SharedChannel, mean_utilization
from repro.hw.event_sim import Simulator


class TestTimeline:
    def test_step_samples_recorded(self):
        sim = Simulator()
        ch = SharedChannel(sim, 100.0, record_timeline=True)
        ch.transfer(100.0, lambda _arg: None)
        sim.run()
        assert ch.timeline
        times = [t for t, _r in ch.timeline]
        assert times == sorted(times)
        # first sample: one flow at full rate; last: back to zero
        assert ch.timeline[0][1] == pytest.approx(100.0)
        assert ch.timeline[-1][1] == 0.0

    def test_disabled_by_default(self):
        ch = SharedChannel(Simulator(), 100.0)
        assert ch.timeline is None

    def test_mean_utilization_exact_case(self):
        # 100 B at 100 B/s over a 2 s window: busy 1 s -> 50%
        sim = Simulator()
        ch = SharedChannel(sim, 100.0, record_timeline=True)
        ch.transfer(100.0, lambda _arg: None)
        sim.run()
        assert mean_utilization(ch.timeline, 100.0, until=2.0) == pytest.approx(0.5)

    def test_mean_utilization_empty(self):
        assert mean_utilization([], 100.0, until=1.0) == 0.0

    def test_cap_reflected_in_rate(self):
        sim = Simulator()
        ch = SharedChannel(sim, 100.0, per_flow_cap=25.0, record_timeline=True)
        ch.transfer(50.0, lambda _arg: None)
        sim.run()
        assert ch.timeline[0][1] == pytest.approx(25.0)


class TestRunTimedRecording:
    def test_utilization_reported(self, cluster, registry):
        result = run_timed(
            build_parallel_m(GemmShape(8000, 32, 64), cluster, registry=registry),
            record_bandwidth=True,
        )
        assert result.ddr_utilization is not None
        assert 0 < result.ddr_utilization <= cluster.dma.ddr_efficiency + 1e-9

    def test_off_by_default(self, cluster, registry):
        result = run_timed(
            build_parallel_m(GemmShape(2000, 32, 64), cluster, registry=registry)
        )
        assert result.ddr_utilization is None


class TestExperiment:
    def test_ext_bandwidth_claims_hold(self):
        from repro.experiments import ext_bandwidth

        for result in ext_bandwidth.run():
            for claim in result.claims:
                assert claim.holds, f"{claim.name}: {claim.measured}"
