"""Observability layer: registry, profiles, run-logs, bottleneck report.

The key guarantees under test:

* instrumentation is a no-op by default — timed results are bit-identical
  with and without an ambient registry;
* the registry snapshot survives a JSON round-trip;
* the per-epoch profile is physically sensible (non-negative spans,
  busy fractions <= 1, epoch boundaries tile the run).
"""

import json

import pytest

from repro.analysis.bottleneck import (
    IDLE_THRESHOLD,
    BottleneckReport,
    attribute,
    diff_records,
)
from repro.core.ftimm import lowered_program
from repro.core.shapes import GemmShape
from repro.core.tuner import tune
from repro.errors import ReproError
from repro.executor.timed import run_timed
from repro.hw.config import default_machine
from repro.obs import (
    MetricsRegistry,
    collecting,
    current,
    make_record,
    append_record,
    read_records,
    last_matching,
)
from repro.obs.profile import merge_intervals


def timed_run(shape=GemmShape(512, 32, 256)):
    machine = default_machine()
    decision = tune(shape, machine.cluster)
    lowered = lowered_program(shape, machine.cluster, decision)
    return run_timed(lowered), shape, machine.cluster


def profiled_run(shape=GemmShape(512, 32, 256)):
    """A run under an ambient registry, which attaches the profile."""
    with collecting():
        return timed_run(shape)


class TestRegistry:
    def test_counter_gauge_distribution(self):
        reg = MetricsRegistry()
        reg.counter("a/b").inc()
        reg.counter("a/b").inc(4)
        assert reg.counter("a/b").value == 5
        reg.gauge("g").set(2.0)
        reg.gauge("g").set(7.0)
        reg.gauge("g").set(3.0)
        assert reg.gauge("g").value == 3.0
        assert reg.gauge("g").high == 7.0
        d = reg.distribution("d")
        for x in (1.0, 2.0, 3.0):
            d.add(x)
        assert d.count == 3 and d.mean == pytest.approx(2.0)
        assert d.min == 1.0 and d.max == 3.0

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ReproError):
            reg.gauge("x")

    def test_names_prefix(self):
        reg = MetricsRegistry()
        reg.counter("sim/events")
        reg.counter("dma/bytes")
        assert reg.names("sim/") == ["sim/events"]

    def test_snapshot_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.distribution("d").add(9.0)
        # the snapshot is plain data: JSON returns it unchanged
        assert json.loads(reg.to_json()) == reg.snapshot()

    def test_ambient_default_is_none(self):
        assert current() is None

    def test_collecting_scopes_the_registry(self):
        with collecting() as reg:
            assert current() is reg
            current().counter("k").inc()
        assert current() is None
        assert reg.counter("k").value == 1


class TestHistogram:
    def test_quantiles_on_log_spaced_samples(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in [1e-4] * 90 + [1e-2] * 9 + [1.0]:
            h.add(v)
        assert h.count == 100
        # p50 lands in the 1e-4 bin; quantile reads the bin's upper edge
        assert 1e-4 <= h.quantile(0.50) <= 2e-4
        assert 1e-2 <= h.quantile(0.95) <= 2e-2
        assert h.quantile(1.0) == 1.0
        pct = h.percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]

    def test_quantile_error_bounded_by_bin_width(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", per_decade=4)
        samples = [1.3e-3, 2.9e-3, 4.4e-3, 8.1e-3]
        for v in samples:
            h.add(v)
        ratio = 10 ** (1 / 4)  # one bin width at 4 bins/decade
        for q, exact in ((0.25, samples[0]), (1.0, samples[-1])):
            est = h.quantile(q)
            assert exact / ratio <= est <= exact * ratio

    def test_under_and_overflow_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", lo_exp=-3, hi_exp=0)
        h.add(1e-6)   # below 1e-3 -> underflow
        h.add(5.0)    # above 1e0  -> overflow
        assert h.counts[0] == 1 and h.counts[-1] == 1
        assert h.quantile(0.5) == 1e-6   # clamped to observed min
        assert h.quantile(1.0) == 5.0    # clamped to observed max

    def test_empty_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        assert h.count == 0
        assert h.quantile(0.5) == 0.0
        snap = h.snapshot()
        assert snap["min"] is None and snap["max"] is None

    def test_bad_bin_spec_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.histogram("bad", lo_exp=2, hi_exp=1)
        with pytest.raises(ReproError):
            reg.histogram("bad2", per_decade=0)

    def test_bad_quantile_rejected(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.add(1.0)
        with pytest.raises(ReproError):
            h.quantile(0.0)
        with pytest.raises(ReproError):
            h.quantile(1.5)

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", lo_exp=-5, hi_exp=1, per_decade=3)
        for v in (1e-4, 3e-4, 2e-2, 0.5, 100.0):
            h.add(v)
        restored = json.loads(reg.to_json())
        assert restored == reg.snapshot()
        assert restored["lat"]["p50"] == h.quantile(0.5)

    def test_histograms_prefix_listing(self):
        reg = MetricsRegistry()
        reg.histogram("serve/latency/total_s").add(1e-3)
        reg.histogram("serve/latency/queue_s").add(1e-4)
        reg.counter("serve/requests/completed").inc()
        names = sorted(h.name for h in reg.histograms("serve/"))
        assert names == [
            "serve/latency/queue_s", "serve/latency/total_s",
        ]

    def test_kind_mismatch_with_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        with pytest.raises(ReproError):
            reg.counter("h")


class TestMergeIntervals:
    def test_overlapping_merged(self):
        assert merge_intervals([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)

    def test_disjoint_summed(self):
        # unsorted input, gap between spans
        assert merge_intervals([(3.0, 4.0), (0.0, 1.0)]) == pytest.approx(2.0)

    def test_contained_span_ignored(self):
        assert merge_intervals([(0.0, 5.0), (1.0, 2.0)]) == pytest.approx(5.0)

    def test_empty(self):
        assert merge_intervals([]) == 0.0


class TestNoOpDefault:
    def test_bit_identical_with_and_without_collecting(self):
        plain, _, _ = timed_run()
        observed, _, _ = profiled_run()
        assert observed.seconds == plain.seconds
        assert observed.events_processed == plain.events_processed
        assert observed.dma_bytes == plain.dma_bytes
        assert observed.core_busy == plain.core_busy

    def test_profile_absent_by_default(self):
        plain, _, _ = timed_run()
        assert plain.profile is None


class TestRunProfileInvariants:
    @pytest.fixture(scope="class")
    def profiled(self):
        return profiled_run()

    def test_profile_attached(self, profiled):
        result, _, _ = profiled
        assert result.profile is not None
        assert result.profile.epochs

    def test_epochs_tile_the_run(self, profiled):
        result, _, _ = profiled
        prof = result.profile
        assert prof.epochs[0].start == 0.0
        for prev, cur in zip(prof.epochs, prof.epochs[1:]):
            assert cur.start == pytest.approx(prev.end)
            assert cur.index == prev.index + 1
        assert prof.epochs[-1].end == pytest.approx(result.seconds)

    def test_spans_non_negative(self, profiled):
        result, _, _ = profiled
        for ep in result.profile.epochs:
            assert ep.duration >= 0.0
            for series in (
                ep.compute_busy,
                ep.dma_busy,
                ep.sync_wait,
                ep.window_stall,
            ):
                assert all(x >= 0.0 for x in series)

    def test_busy_fractions_bounded(self, profiled):
        result, _, _ = profiled
        for ep in result.profile.epochs:
            if ep.duration <= 0.0:
                continue
            for series in (ep.compute_busy, ep.dma_busy):
                for busy in series:
                    # merged spans can never exceed the epoch window
                    assert busy <= ep.duration * (1 + 1e-9)
            assert 0.0 <= ep.compute_frac <= 1.0
            assert 0.0 <= ep.dma_frac <= 1.0


class TestPublishedMetrics:
    def test_simulator_and_dma_metrics(self):
        with collecting() as reg:
            result, _, _ = timed_run()
        assert reg.counter("sim/events_processed").value == (
            result.events_processed
        )
        assert reg.gauge("sim/heap_peak").value >= 1
        assert reg.counter("dma/transfers").value > 0
        ddr = reg.counter("bw/ddr/bytes_served").value
        assert ddr > 0
        medium_total = sum(
            reg.counter(name).value for name in reg.names("dma/bytes/")
        )
        assert medium_total > 0

    def test_scheduler_metrics(self):
        from repro.kernels.registry import KernelRegistry

        # a fresh registry guarantees the scheduler actually runs
        with collecting() as reg:
            KernelRegistry(default_machine().cluster.core).ftimm(8, 96, 512)
        assert reg.counter("isa/loops_scheduled").value >= 1
        ii = reg.distribution("isa/ii")
        slack = reg.distribution("isa/ii_slack")
        assert ii.count >= 1 and ii.min >= 1
        assert slack.min >= 0.0  # II can never beat the MII lower bound
        for name in reg.names("isa/occupancy/"):
            occ = reg.distribution(name)
            assert 0.0 <= occ.max <= 1.0 + 1e-9

    def test_tuner_metrics(self):
        shape = GemmShape(512, 32, 256)
        with collecting() as reg:
            tune(shape, default_machine().cluster)
        assert reg.counter("tuner/decisions").value == 1
        strategy_names = reg.names("tuner/strategy/")
        assert len(strategy_names) == 1
        assert reg.counter(strategy_names[0]).value == 1


class TestRunLog:
    def record(self, seconds=1.0, bound="ddr"):
        return make_record(
            shape="64x4096x4096",
            impl="ftimm",
            strategy="mPsK",
            cores=8,
            seconds=seconds,
            gflops=100.0,
            efficiency=0.5,
            bound=bound,
        )

    def test_append_and_read(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, self.record())
        append_record(path, self.record(seconds=2.0))
        records = read_records(path)
        assert len(records) == 2
        assert records[1]["seconds"] == 2.0

    def test_other_schemas_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, {"schema": "other/1", "x": 1})
        append_record(path, self.record())
        assert len(read_records(path)) == 1

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ReproError):
            read_records(path)

    def test_last_matching(self, tmp_path):
        a = self.record(seconds=1.0)
        b = self.record(seconds=2.0)
        other = make_record(
            shape="1x2x3",
            impl="tgemm",
            strategy="tgemm",
            cores=8,
            seconds=9.0,
            gflops=1.0,
            efficiency=0.1,
            bound="idle",
        )
        match = last_matching(
            [a, other, b], shape="64x4096x4096", impl="ftimm", cores=8
        )
        assert match is b
        assert (
            last_matching([other], shape="9x9x9", impl="ftimm", cores=8)
            is None
        )


class TestBottleneck:
    @pytest.fixture(scope="class")
    def report(self):
        result, shape, cluster = profiled_run(GemmShape(64, 4096, 4096))
        return attribute(result, GemmShape(64, 4096, 4096), cluster)

    def test_requires_profile(self):
        result, shape, cluster = timed_run()
        with pytest.raises(ReproError):
            attribute(result, shape, cluster)

    def test_report_shape(self, report):
        assert isinstance(report, BottleneckReport)
        assert report.epochs
        for ep in report.epochs:
            assert ep.bound in {"compute", "ddr", "memory", "sync", "idle"}
            total = ep.compute_frac + ep.dma_frac
            assert total >= IDLE_THRESHOLD or ep.bound in {"idle", "sync"}

    def test_overall_bound_is_an_epoch_bound(self, report):
        assert report.bound in {ep.bound for ep in report.epochs}

    def test_render_mentions_verdict_and_epochs(self, report):
        text = report.render()
        assert "verdict" in text
        assert "epoch" in text
        assert report.bound in text

    def test_roofline_fraction_sane(self, report):
        assert 0.0 < report.roofline_fraction <= 1.5

    def test_diff_records(self):
        old = make_record(
            shape="64x4096x4096",
            impl="ftimm",
            strategy="mPsK",
            cores=8,
            seconds=2.0,
            gflops=50.0,
            efficiency=0.25,
            bound="ddr",
        )
        new = make_record(
            shape="64x4096x4096",
            impl="ftimm",
            strategy="mPsK",
            cores=8,
            seconds=1.0,
            gflops=100.0,
            efficiency=0.5,
            bound="compute",
        )
        text = diff_records(old, new)
        assert "seconds" in text
        assert "ddr" in text and "compute" in text
