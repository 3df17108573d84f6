"""Additional hardware-layer coverage: DES composition patterns, channel
statistics, memory corner cases."""

import numpy as np
import pytest

from repro.hw.bandwidth import SharedChannel
from repro.hw.event_sim import Resource, Simulator
from repro.hw.memory import MemKind, MemorySpace


class TestNestedComposition:
    def test_resource_fifo_order_strict(self):
        sim = Simulator()
        res = Resource(sim, 1)
        order = []

        def user(i):
            order.append(i)
            sim.schedule(0.5, lambda _arg: res.release())

        for i in range(6):
            res.request(user, i)
        sim.run()
        assert order == list(range(6))
        assert sim.now == 3.0


class TestChannelStats:
    def test_busy_time_accounts_idle_gaps(self):
        sim = Simulator()
        ch = SharedChannel(sim, 100.0)

        def second(_arg):
            ch.transfer(200.0, lambda _arg: None)  # 2 s busy

        # 1 s busy, a 5 s idle gap, then the second transfer
        ch.transfer(100.0, lambda _arg: sim.schedule(5.0, second))
        sim.run()
        assert ch.stats.busy_time == pytest.approx(3.0)
        assert ch.stats.flows_completed == 2

    def test_weighted_concurrency_integral(self):
        sim = Simulator()
        ch = SharedChannel(sim, 100.0)
        ch.transfer(100.0, lambda _arg: None)
        ch.transfer(100.0, lambda _arg: None)
        sim.run()
        # both active for 2 s at concurrency 2: integral = 4
        assert ch.stats.weighted_concurrency == pytest.approx(4.0)


class TestMemoryCorners:
    def test_alignment_one_allowed(self):
        space = MemorySpace("t", MemKind.AM, 64, alignment=1)
        buf = space.alloc((1, 3), np.float32)
        assert buf.nbytes == 12  # no rounding

    def test_zero_sized_allocation(self):
        space = MemorySpace("t", MemKind.AM, 128)
        buf = space.alloc((0, 16), np.float32)
        assert buf.nbytes == space.alignment  # minimum footprint
        assert space.used == space.alignment
