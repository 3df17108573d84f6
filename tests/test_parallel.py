"""Process-pool helpers and parallel-vs-serial result identity.

The contract of :mod:`repro.parallel` is that parallelism is *invisible*
in the results: ``parallel_map`` returns in input order, and the
autotuner is result-identical for every job count.
"""

import pytest

from repro.core.autotune import autotune
from repro.core.shapes import GemmShape
from repro.hw.config import default_machine
from repro.parallel import default_jobs, parallel_map, resolve_jobs


def _square(x: int) -> int:
    return x * x


def _neg(x: int) -> int:
    return -x


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

    @pytest.mark.parametrize("knob", ["timeout", "retries", "min_units"])
    def test_removed_knobs_rejected(self, knob):
        with pytest.raises(TypeError, match=knob):
            parallel_map(_square, [1, 2], 2, **{knob: 1})


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
