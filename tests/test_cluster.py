"""Cluster assemblies: spaces, cores, reduction model."""

import pytest

from repro.errors import CapacityError, ConfigError
from repro.hw.cluster import ClusterSim, ClusterSpaces, reduction_seconds
from repro.hw.config import ClusterConfig
from repro.hw.memory import MemKind


class TestClusterSpaces:
    def test_per_core_spaces_exist(self, cluster):
        spaces = ClusterSpaces(cluster)
        assert len(spaces.am) == cluster.n_cores
        assert len(spaces.sm) == cluster.n_cores
        assert spaces.gsm.capacity == cluster.gsm_bytes

    def test_space_lookup(self, cluster):
        spaces = ClusterSpaces(cluster)
        assert spaces.space(MemKind.DDR) is spaces.ddr
        assert spaces.space(MemKind.GSM) is spaces.gsm
        assert spaces.space(MemKind.AM, 3) is spaces.am[3]
        assert spaces.space(MemKind.SM, 7) is spaces.sm[7]

    def test_space_lookup_bad_core(self, cluster):
        spaces = ClusterSpaces(cluster)
        with pytest.raises(ConfigError):
            spaces.space(MemKind.AM, cluster.n_cores)

    def test_am_capacity_enforced(self, cluster):
        spaces = ClusterSpaces(cluster)
        with pytest.raises(CapacityError):
            spaces.am[0].alloc((1024, 1024))  # 4 MiB > 768 KiB


class TestClusterSim:
    def test_ddr_channel_derated(self, cluster):
        sim = ClusterSim(cluster)
        expected = cluster.ddr_bandwidth * cluster.dma.ddr_efficiency
        assert sim.ddr_channel.bandwidth == pytest.approx(expected)

    def test_ddr_per_flow_cap_wired(self, cluster):
        sim = ClusterSim(cluster)
        assert sim.ddr_channel.per_flow_cap == pytest.approx(
            cluster.dma.channel_bandwidth
        )

    def test_kernel_occupies_compute(self, cluster):
        cs = ClusterSim(cluster)
        done = []
        cs.cores[0].run_kernel(1800, done.append, "k")  # 1 us at 1.8 GHz
        cs.sim.run()
        assert done == ["k"]
        assert cs.sim.now == pytest.approx(1e-6)
        assert cs.cores[0].compute_cycles == 1800

    def test_kernels_serialize_on_one_core(self, cluster):
        cs = ClusterSim(cluster)
        ends = []
        for _ in range(2):
            cs.cores[0].run_kernel(1800, lambda _arg: ends.append(cs.sim.now))
        cs.sim.run()
        assert ends == [pytest.approx(1e-6), pytest.approx(2e-6)]
        assert cs.sim.now == pytest.approx(2e-6)

    def test_kernels_parallel_across_cores(self, cluster):
        cs = ClusterSim(cluster)
        for core in cs.cores[:2]:
            core.run_kernel(1800, lambda _arg: None)
        cs.sim.run()
        assert cs.sim.now == pytest.approx(1e-6)


class TestReduction:
    def test_single_core_is_just_writeback(self, cluster):
        nbytes = 4096
        assert reduction_seconds(cluster, nbytes, 1) == pytest.approx(
            nbytes / cluster.ddr_bandwidth
        )

    def test_cost_grows_with_cores(self, cluster):
        nbytes = 128 * 1024
        costs = [reduction_seconds(cluster, nbytes, n) for n in (2, 4, 8)]
        assert costs[0] < costs[1] < costs[2]

    def test_cost_grows_with_bytes(self, cluster):
        assert reduction_seconds(cluster, 1024, 8) < reduction_seconds(
            cluster, 1024 * 1024, 8
        )

    def test_barrier_floor(self, cluster):
        floor = cluster.barrier_cycles / cluster.core.clock_hz
        assert reduction_seconds(cluster, 64, 8) > floor
