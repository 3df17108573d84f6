"""Hardening paths outside the fault injector.

Covers the satellites of the robustness work: the process-pool's
timeout/crash handling, quarantine of corrupt on-disk caches, and the
torn-write behaviour of the JSONL run-log.  The shared theme matches
:mod:`tests.test_faults`: degrade loudly (typed errors, ``*.bad``
quarantine files, counters) instead of crashing obscurely or silently
reusing bad state.
"""

import json
import time

import pytest

from repro.errors import ReproError, WorkerError
from repro.obs import collecting
from repro.obs.runlog import append_record, make_record, read_records


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


def _sleepy(x: int) -> int:
    time.sleep(2.0)
    return x


class TestParallelMapHardening:
    def test_fn_exception_propagates_serial(self):
        from repro.parallel import parallel_map

        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, [1, 2], jobs=1)

    def test_fn_exception_propagates_pool(self):
        from repro.parallel import parallel_map

        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, [1, 2, 3], jobs=2)

    def test_timeout_raises_worker_error(self):
        from repro.parallel import parallel_map

        with collecting() as obs:
            with pytest.raises(WorkerError, match="crashed or hung"):
                parallel_map(
                    _sleepy, [1, 2], jobs=2, timeout=0.2, retries=0
                )
        assert obs.counter("parallel/timeouts").value >= 1

    def test_timeout_large_enough_succeeds(self):
        from repro.parallel import parallel_map

        assert parallel_map(
            _square, [2, 3, 4], jobs=2, timeout=60.0
        ) == [4, 9, 16]

    def test_breaker_forces_serial(self):
        import repro.parallel as par

        saved = (par._pool_disabled, par._consecutive_pool_failures)
        try:
            par._pool_disabled = True
            with collecting() as obs:
                assert par.parallel_map(_square, [5, 6], jobs=4) == [25, 36]
            assert obs.counter("parallel/serial_fallbacks").value >= 1
        finally:
            par._pool_disabled, par._consecutive_pool_failures = saved

    def test_breaker_trips_after_limit(self):
        import repro.parallel as par

        saved = (par._pool_disabled, par._consecutive_pool_failures)
        try:
            par._pool_disabled = False
            par._consecutive_pool_failures = 0
            for _ in range(par._BREAKER_LIMIT):
                par._note_pool_failure()
            assert par._pool_disabled
            par._pool_disabled = False
            par._note_pool_ok()
            assert par._consecutive_pool_failures == 0
        finally:
            par._pool_disabled, par._consecutive_pool_failures = saved


class TestKernelDiskCacheQuarantine:
    def test_corrupt_entry_quarantined_and_regenerated(self, tmp_path):
        from repro.hw.config import default_machine
        from repro.kernels.registry import KernelDiskCache, KernelRegistry

        core = default_machine().cluster.core
        reg = KernelRegistry(core, disk=KernelDiskCache(tmp_path))
        kern = reg.ftimm(6, 64, 64)
        entries = list(tmp_path.rglob("*.json"))
        assert len(entries) == 1
        entries[0].write_text("{ not json")

        fresh = KernelRegistry(core, disk=KernelDiskCache(tmp_path))
        with collecting() as obs:
            again = fresh.ftimm(6, 64, 64)
        assert obs.counter("kernels/cache/quarantined").value == 1
        assert list(tmp_path.rglob("*.json.bad"))
        assert again.spec == kern.spec


class TestRunlogTornWrites:
    def _record(self):
        return make_record(
            shape="8x8x8", impl="ftimm", strategy="m", cores=8,
            seconds=1e-3, gflops=1.0, efficiency=0.5, bound="ddr",
        )

    def test_invalid_line_raises_by_default(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        append_record(log, self._record())
        with log.open("a") as fh:
            fh.write('{"schema": "repro-perf/1", "torn...\n')
        with pytest.raises(ReproError, match="invalid JSON"):
            read_records(log)

    def test_skip_invalid_drops_torn_line(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        append_record(log, self._record())
        with log.open("a") as fh:
            fh.write('{"schema": "repro-perf/1", "torn...\n')
        append_record(log, self._record())
        records = read_records(log, skip_invalid=True)
        assert len(records) == 2
