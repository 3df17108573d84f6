"""Hardening paths outside the fault injector.

Covers the torn-write behaviour of the JSONL run-log (the experiment
pool's crash handling is tested in :mod:`tests.test_run_all`).  The
shared theme matches :mod:`tests.test_faults`: degrade loudly (typed
errors) instead of crashing obscurely or silently reusing bad state.
"""

import pytest

from repro.errors import ReproError
from repro.obs.runlog import append_record, make_record, read_records


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
