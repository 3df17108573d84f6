"""Process-pool helpers and parallel-vs-serial result identity.

The contract of :mod:`repro.parallel` is that parallelism is *invisible*
in the results: ``parallel_map`` returns in input order, and the callers
(autotune, tune_many, run_all) are result-identical for every job count.
"""

import pytest

from repro.core.autotune import autotune
from repro.core.shapes import GemmShape
from repro.core.tuner import tune, tune_many
from repro.hw.config import default_machine
from repro.obs import collecting
from repro.parallel import (
    POOL_MIN_UNITS,
    WorkerPool,
    active_pool,
    default_jobs,
    parallel_map,
    resolve_jobs,
    worker_pool,
)


def _square(x: int) -> int:
    return x * x


def _neg(x: int) -> int:
    return -x


def _raise(x: int) -> int:
    raise ValueError(x)


class TestJobsResolution:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_env_invalid_falls_through(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "zero")
        assert default_jobs() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "-2")
        assert default_jobs() == (os.cpu_count() or 1)

    def test_env_unset_uses_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == (os.cpu_count() or 1)

    def test_resolve_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4
        assert resolve_jobs(None, n_items=2) == 2
        assert resolve_jobs(0) == 1
        assert resolve_jobs(8, n_items=0) == 1
        assert resolve_jobs(2, n_items=100) == 2


class TestParallelMap:
    def test_results_in_input_order(self):
        items = list(range(20, -1, -1))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]

    def test_serial_path_identical(self):
        items = [3, 1, 4, 1, 5]
        assert parallel_map(_neg, items, jobs=1) == parallel_map(
            _neg, items, jobs=3
        )

    def test_single_item_runs_serially(self):
        assert parallel_map(_square, [7], jobs=8) == [49]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_accepts_generators(self):
        assert parallel_map(_square, (x for x in (2, 3)), jobs=2) == [4, 9]

    def test_min_units_stays_serial(self):
        """Below the amortization floor, jobs>1 must not spawn a pool."""
        items = list(range(8))
        with collecting() as reg:
            out = parallel_map(
                _square, items, jobs=4, min_units=POOL_MIN_UNITS
            )
        assert out == [x * x for x in items]
        snap = reg.snapshot()
        assert snap["parallel/amortized_serial"]["value"] == 1
        assert "parallel/pool_reuses" not in snap

    def test_min_units_overridden_by_active_pool(self):
        """A warm ambient pool is free: small batches may ride it."""
        items = list(range(8))
        with collecting() as reg, worker_pool(2):
            out = parallel_map(
                _square, items, jobs=2, min_units=POOL_MIN_UNITS
            )
        assert out == [x * x for x in items]
        assert reg.snapshot()["parallel/pool_reuses"]["value"] == 1


class TestWorkerPool:
    def test_result_identity_for_every_job_count(self):
        items = list(range(40, -1, -1))
        expect = [x * x for x in items]
        for jobs in (1, 2, 3):
            with WorkerPool(jobs) as pool:
                assert list(pool.map(_square, items)) == expect

    def test_pool_reused_across_maps(self):
        with collecting() as reg, worker_pool(2) as pool:
            assert active_pool() is pool
            for _ in range(3):
                parallel_map(_square, [1, 2, 3], jobs=2)
        assert active_pool() is None
        assert reg.snapshot()["parallel/pool_reuses"]["value"] == 3

    def test_nested_pools_restore_outer(self):
        with worker_pool(2) as outer:
            with worker_pool(2) as inner:
                assert active_pool() is inner
            assert active_pool() is outer
        assert active_pool() is None

    def test_exceptions_propagate(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError):
                list(pool.map(_raise, [1]))


class TestAutotuneIdentity:
    @pytest.fixture(scope="class")
    def cluster(self):
        return default_machine().cluster

    def test_parallel_equals_serial(self, cluster):
        shape = GemmShape(512, 32, 512)
        serial = autotune(shape, cluster, validate_top=1, jobs=1)
        fanned = autotune(shape, cluster, validate_top=1, jobs=2)
        assert fanned.best == serial.best
        assert fanned.rule == serial.rule
        assert fanned.n_candidates == serial.n_candidates

    def test_parallel_identity_inside_warm_pool(self, cluster):
        """A warm ambient pool changes the wave schedule, not the result."""
        shape = GemmShape(512, 32, 512)
        serial = autotune(shape, cluster, validate_top=1, jobs=1)
        with worker_pool(2):
            pooled = autotune(shape, cluster, validate_top=1, jobs=2)
        assert pooled.best == serial.best
        assert pooled.stats.pooled

    def test_tune_many_equals_tune(self, cluster):
        shapes = [
            GemmShape(512, 32, 512),
            GemmShape(64, 8, 4096),
            GemmShape(2048, 96, 256),
        ]
        fanned = tune_many(shapes, cluster, jobs=2)
        serial = [tune(s, cluster) for s in shapes]
        assert [d.strategy for d in fanned] == [d.strategy for d in serial]
        assert [d.plan for d in fanned] == [d.plan for d in serial]
