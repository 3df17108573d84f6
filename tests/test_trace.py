"""DES execution spans on the ambient tracer: summaries, export, Gantt."""

import pytest

from repro.core.parallel_m import build_parallel_m
from repro.core.shapes import GemmShape
from repro.errors import ReproError
from repro.executor.timed import run_timed
from repro.obs import (
    Tracer,
    TraceSpan,
    ascii_timeline,
    load_spans,
    track_busy,
    tracing,
    validate_chrome_trace,
)


def traced_run(cluster, registry, shape=GemmShape(1000, 32, 128)):
    with tracing() as tracer:
        result = run_timed(build_parallel_m(shape, cluster, registry=registry))
    return tracer, result


def des_spans(tracer):
    """The per-op rows: kernel, DMA and sync spans (not epochs)."""
    return [s for s in tracer.spans
            if s.category in ("kernel", "dma", "sync")]


class TestRecorder:
    def test_backwards_span_rejected(self):
        with pytest.raises(ReproError):
            Tracer().record("x", category="kernel", start_s=2.0, end_s=1.0)

    def test_span_duration(self):
        assert TraceSpan(1, None, "x", "dma", 1.0, 3.5).duration_s == 2.5

    def test_run_produces_spans_for_all_ops(self, cluster, registry):
        trace, _result = traced_run(cluster, registry)
        assert trace.n_spans > 0
        categories = {s.category for s in trace.spans}
        assert categories >= {"kernel", "dma", "sync"}

    def test_spans_within_simulated_time(self, cluster, registry):
        trace, result = traced_run(cluster, registry)
        assert all(0 <= s.start_s <= s.end_s <= result.seconds + 1e-12
                   for s in trace.spans)

    def test_kernel_spans_match_cycle_model(self, cluster, registry):
        trace, _ = traced_run(cluster, registry)
        kern = registry.ftimm(8, 32, 128)
        expected = kern.cycles / cluster.core.clock_hz
        kernel_spans = trace.by_category("kernel")
        assert kernel_spans
        assert any(abs(s.duration_s - expected) < 1e-12
                   for s in kernel_spans)

    def test_compute_spans_never_overlap_per_core(self, cluster, registry):
        """One compute pipeline per core: its spans must be disjoint."""
        trace, _ = traced_run(cluster, registry)
        for core in range(cluster.n_cores):
            row = sorted(
                (s.start_s, s.end_s)
                for s in trace.spans
                if s.track == f"core{core}/compute"
            )
            for (s1, e1), (s2, _e2) in zip(row, row[1:]):
                assert e1 <= s2 + 1e-12


class TestSummaries:
    def test_summary_rows(self, cluster, registry):
        trace, _ = traced_run(cluster, registry)
        spans = des_spans(trace)
        summaries = track_busy(spans)
        assert set(summaries) == {s.track for s in spans}
        for _n, _busy, util in summaries.values():
            assert 0 < util <= 1.0 + 1e-9

    def test_merged_busy_never_exceeds_window(self, cluster, registry):
        trace, result = traced_run(cluster, registry)
        for _n, busy, _util in track_busy(des_spans(trace)).values():
            assert busy <= result.seconds + 1e-12

    def test_dma_busier_than_compute_when_memory_bound(self, cluster, registry):
        """N=32 shapes are DDR-bound: engines out-busy the pipelines."""
        trace, _ = traced_run(cluster, registry, GemmShape(4000, 32, 64))
        summaries = track_busy(des_spans(trace))
        assert summaries["core0/dma"][1] > summaries["core0/compute"][1]


class TestExport:
    def test_chrome_trace_structure(self, cluster, registry):
        trace, _ = traced_run(cluster, registry)
        doc = trace.to_chrome()
        validate_chrome_trace(doc)
        timed = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert len(timed) == trace.n_spans
        xs = [e for e in timed if e["ph"] == "X"]
        assert len(xs) == sum(s.duration_s > 0 for s in trace.spans)
        assert all(e["dur"] >= 0 for e in xs)

    def test_save_roundtrip(self, cluster, registry, tmp_path):
        trace, _ = traced_run(cluster, registry)
        path = trace.save(tmp_path / "trace.json")
        assert load_spans(path) == trace.spans

    def test_ascii_timeline(self, cluster, registry):
        trace, _ = traced_run(cluster, registry)
        text = ascii_timeline(des_spans(trace), width=40)
        assert "core0/compute" in text
        assert "#" in text

    def test_ascii_timeline_empty(self):
        assert "empty" in ascii_timeline([])
