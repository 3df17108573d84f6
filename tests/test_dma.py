"""DMA descriptors, the analytic transfer time and the engine."""

import pytest

from repro.errors import PlanError
from repro.executor.analytic import _Costs
from repro.hw.bandwidth import LocalChannel, SharedChannel
from repro.hw.config import ClusterConfig, DmaConfig, DspCoreConfig
from repro.hw.dma import DmaDescriptor, DmaEngine
from repro.hw.event_sim import Simulator
from repro.hw.memory import MemKind


def noop(_arg):
    pass


class TestDescriptor:
    def test_nbytes(self):
        d = DmaDescriptor(MemKind.DDR, MemKind.AM, rows=10, row_bytes=128)
        assert d.nbytes == 1280

    def test_medium_ddr_dominates(self):
        d = DmaDescriptor(MemKind.DDR, MemKind.GSM, 1, 64)
        assert d.medium is MemKind.DDR

    def test_medium_gsm_when_no_ddr(self):
        d = DmaDescriptor(MemKind.GSM, MemKind.SM, 1, 64)
        assert d.medium is MemKind.GSM

    def test_medium_local(self):
        d = DmaDescriptor(MemKind.AM, MemKind.SM, 1, 64)
        assert d.medium is MemKind.AM

    def test_medium_is_stored_and_not_compared(self):
        a = DmaDescriptor(MemKind.DDR, MemKind.AM, 2, 64, "x")
        b = DmaDescriptor(MemKind.AM, MemKind.DDR, 2, 64, "x")
        assert vars(a)["medium"] is MemKind.DDR  # derived once, at init
        assert a == DmaDescriptor(MemKind.DDR, MemKind.AM, 2, 64, "x")
        assert hash(a) == hash(DmaDescriptor(MemKind.DDR, MemKind.AM, 2, 64, "x"))
        assert a != b and a.medium is b.medium
        assert "medium" not in repr(a)

    def test_effective_bytes_overhead_only_for_ddr(self):
        cfg = DmaConfig(row_overhead_bytes=64)
        ddr = DmaDescriptor(MemKind.DDR, MemKind.AM, rows=10, row_bytes=128)
        gsm = DmaDescriptor(MemKind.GSM, MemKind.AM, rows=10, row_bytes=128)
        assert ddr.effective_bytes(cfg) == 10 * (128 + 64)
        assert gsm.effective_bytes(cfg) == 10 * 128

    def test_short_rows_waste_more_bandwidth(self):
        cfg = DmaConfig(row_overhead_bytes=64)
        skinny = DmaDescriptor(MemKind.DDR, MemKind.AM, rows=100, row_bytes=32)
        chunky = DmaDescriptor(MemKind.DDR, MemKind.AM, rows=1, row_bytes=3200)
        assert skinny.nbytes == chunky.nbytes
        assert skinny.effective_bytes(cfg) > chunky.effective_bytes(cfg)

    def test_negative_geometry_rejected(self):
        with pytest.raises(PlanError):
            DmaDescriptor(MemKind.DDR, MemKind.AM, rows=-1, row_bytes=4)


def analytic_costs(**dma) -> _Costs:
    """The analytic executor's per-call context over a custom DMA config."""
    return _Costs(ClusterConfig(dma=DmaConfig(**dma)), None)


class TestTimingModel:
    """``_Costs.dma_s``: the analytic time of one 2-D transfer (FP32 rows)."""

    def test_seconds_formula(self):
        core = DspCoreConfig()
        cs = analytic_costs(startup_cycles=180, row_overhead_bytes=64)
        bw = 10e9
        expected = 180 / core.clock_hz + 10 * (128 + 64) / bw
        assert cs.dma_s(MemKind.DDR, MemKind.AM, 10, 32, bw) == \
            pytest.approx(expected)

    def test_zero_bytes_is_free(self):
        cs = analytic_costs()
        assert cs.dma_s(MemKind.DDR, MemKind.AM, 0, 32, 1e9) == 0.0

    def test_local_transfers_use_am_bandwidth(self):
        core = DspCoreConfig()
        cs = analytic_costs(startup_cycles=0)
        expected = 5120 / (core.am_bytes_per_cycle * core.clock_hz)
        assert cs.dma_s(MemKind.AM, MemKind.SM, 1, 1280, 1.0) == \
            pytest.approx(expected)


def make_engine(channels=2, startup=0):
    sim = Simulator()
    core = DspCoreConfig()
    dma = DmaConfig(channels_per_core=channels, startup_cycles=startup)
    chans = {
        MemKind.DDR: SharedChannel(sim, 100.0, "ddr"),
        MemKind.GSM: SharedChannel(sim, 1000.0, "gsm"),
        MemKind.AM: LocalChannel(sim, 10000.0, "local"),
    }
    chans[MemKind.SM] = chans[MemKind.AM]
    return sim, DmaEngine(sim, 0, core, dma, chans)


class TestEngine:
    def test_transfer_completes_and_counts(self):
        sim, eng = make_engine()
        desc = DmaDescriptor(MemKind.GSM, MemKind.AM, rows=10, row_bytes=100)
        done = []
        eng.issue(desc, done.append, "d")
        sim.run()
        assert done == ["d"]
        assert eng.bytes_moved == 1000
        assert eng.transfers == 1

    def test_channels_limit_concurrency(self):
        sim, eng = make_engine(channels=1)
        # two GSM transfers of 1000 B at 1000 B/s each: serialized -> 2 s
        d = DmaDescriptor(MemKind.GSM, MemKind.AM, rows=10, row_bytes=100)
        eng.issue(d, noop)
        eng.issue(d, noop)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_two_channels_overlap(self):
        sim, eng = make_engine(channels=2)
        d = DmaDescriptor(MemKind.GSM, MemKind.AM, rows=10, row_bytes=100)
        eng.issue(d, noop)
        eng.issue(d, noop)
        sim.run()
        # GSM is a shared channel: two concurrent flows at 500 B/s each
        assert sim.now == pytest.approx(2.0)

    def test_queue_wait_and_depth_three_transfers_two_channels(self):
        sim, eng = make_engine(channels=2)
        d = DmaDescriptor(MemKind.GSM, MemKind.AM, rows=10, row_bytes=100)
        for _ in range(3):
            eng.issue(d, noop)
        sim.run()
        # two share GSM at 500 B/s each until t=2 while the third waits
        # for a channel; it then runs alone for 1 s
        assert eng.queue_wait_s == 2.0
        assert eng.queue_depth_peak == 1
        assert sim.now == 3.0
        assert eng.transfers == 3

    def test_startup_cost_applied(self):
        sim, eng = make_engine(startup=1800)  # 1 us at 1.8 GHz
        d = DmaDescriptor(MemKind.GSM, MemKind.AM, rows=1, row_bytes=1000)
        eng.issue(d, noop)
        sim.run()
        assert sim.now == pytest.approx(1e-6 + 1.0)

    def test_ddr_contention_between_engines(self):
        sim = Simulator()
        core = DspCoreConfig()
        dma = DmaConfig(channels_per_core=1, startup_cycles=0)
        ddr = SharedChannel(sim, 100.0, "ddr")
        chans = {
            MemKind.DDR: ddr,
            MemKind.GSM: SharedChannel(sim, 1e6),
            MemKind.AM: LocalChannel(sim, 1e6),
        }
        chans[MemKind.SM] = chans[MemKind.AM]
        engines = [DmaEngine(sim, i, core, dma, chans) for i in range(2)]
        d = DmaDescriptor(MemKind.DDR, MemKind.AM, rows=1, row_bytes=100)
        for eng in engines:
            eng.issue(d, noop)
        sim.run()
        # two engines share the port: 100+64 overhead each at 50 B/s
        assert sim.now == pytest.approx(2 * 164 / 100.0)
