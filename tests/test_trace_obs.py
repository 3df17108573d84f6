"""Request tracing, critical-path attribution, and SLO monitoring.

The guarantees under test:

* tracing is observation-only — functional results, modeled times and
  every serve record are bit-identical with the tracer on or off;
* spans nest: every DES kernel span lands inside an epoch span, every
  serve segment child inside its batch span, parents exist and precede
  their children;
* the Chrome exporter emits schema-valid traces (and the validator
  actually rejects malformed ones), and the span sidecar round-trips
  losslessly through save/load;
* the critical-path analyzer covers >= 95% of every completed request's
  latency, and reconstructing it from the trace sidecar agrees with
  reconstructing it from the serve records;
* SLO burn-rate alerts are a pure function of the records: the overload
  mix at saturation fires, the light mix never does, and replaying the
  same records yields the same alerts;
* ``monitor`` equals a plain :class:`OnlineBurn` replay, window edge
  ``(t - window_s, t]`` included.
"""

import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import critical_path, from_spans
from repro.core.ftimm import ftimm_gemm, lowered_program
from repro.core.shapes import GemmShape
from repro.core.tuner import tune
from repro.errors import InputError, PlanError, ReproError
from repro.executor.timed import run_timed
from repro.faults.plan import FaultPlan
from repro.hw.config import default_machine
from repro.obs import (
    Tracer,
    current_tracer,
    load_spans,
    maybe_scope,
    read_records,
    set_tracer,
    tracing,
    validate_chrome_trace,
)
from repro.serve import (
    SLO_SCHEMA,
    BurnWindow,
    DegradePolicy,
    OnlineBurn,
    ServeConfig,
    SloPolicy,
    gateway_replay,
    make_requests,
    monitor,
    serve,
)
from repro.serve import placement as placement_mod
from repro.serve.batcher import bucket_class
from repro.serve.request import COMPLETED, SHED
from repro.workloads.generators import random_operands

from test_serve import fast_requests

OVERLOAD_RPS = 480_000.0
LIGHT_RPS = 30_000.0
N_REQUESTS = 100


def serve_run(mix="overload", rate=OVERLOAD_RPS, n=N_REQUESTS, seed=0):
    requests = make_requests(mix, rate_rps=rate, n_requests=n, seed=seed)
    return serve(requests, ServeConfig())


def timed_lowered(shape=GemmShape(512, 32, 256)):
    machine = default_machine()
    decision = tune(shape, machine.cluster)
    return lowered_program(shape, machine.cluster, decision)


# ---------------------------------------------------------------- tracer


class TestTracer:
    def test_off_by_default(self):
        assert current_tracer() is None

    def test_ambient_install_and_teardown(self):
        with tracing() as tr:
            assert current_tracer() is tr
        assert current_tracer() is None

    def test_scope_nesting_sets_parents(self):
        with tracing() as tr:
            with tr.scope("outer"):
                with tr.scope("inner"):
                    pass
        outer = next(s for s in tr.spans if s.name == "outer")
        inner = next(s for s in tr.spans if s.name == "inner")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_record_with_explicit_times(self):
        tr = Tracer()
        sid = tr.record("a", start_s=1.0, end_s=2.5)
        (span,) = tr.spans
        assert span.span_id == sid
        assert span.duration_s == pytest.approx(1.5)
        assert span.wall_end >= span.wall_start

    def test_span_rejects_negative_duration(self):
        tr = Tracer()
        with pytest.raises(ReproError):
            tr.record("bad", start_s=2.0, end_s=1.0)

    def test_maybe_scope_is_none_without_tracer(self):
        with maybe_scope("nothing") as scope:
            assert scope is None

    def test_sidecar_roundtrip(self, tmp_path):
        with tracing() as tr:
            with tr.scope("outer", args={"x": 1}):
                tr.instant("tick", at_s=0.5)
        path = tr.save(tmp_path / "t.json")
        loaded = load_spans(path)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in tr.spans]


class TestDesNesting:
    """Spans from concurrent DES processes still nest consistently."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        with tracing() as tr:
            result = run_timed(timed_lowered())
        return tr, result

    def test_kernel_spans_inside_epochs(self, traced_run):
        tr, _result = traced_run
        epochs = sorted(
            (s for s in tr.spans if s.category == "epoch"),
            key=lambda s: s.start_s,
        )
        kernels = [s for s in tr.spans if s.category == "kernel"]
        assert epochs and kernels
        eps = 1e-12
        for k in kernels:
            assert any(
                e.start_s - eps <= k.start_s and k.end_s <= e.end_s + eps
                for e in epochs
            ), f"kernel span [{k.start_s}, {k.end_s}] outside every epoch"

    def test_concurrent_core_tracks_are_distinct(self, traced_run):
        tr, _result = traced_run
        tracks = {s.track for s in tr.spans if s.category == "kernel"}
        assert len(tracks) == default_machine().cluster.n_cores

    def test_parents_exist_and_contain_children(self, traced_run):
        tr, _result = traced_run
        by_id = {s.span_id: s for s in tr.spans}
        for s in tr.spans:
            if s.parent_id is None:
                continue
            parent = by_id[s.parent_id]
            assert parent.span_id != s.span_id

    def test_dma_spans_cover_transfers(self, traced_run):
        tr, result = traced_run
        dma = [s for s in tr.spans if s.category == "dma"]
        assert dma
        assert all(s.end_s <= result.seconds + 1e-9 for s in dma)


# ----------------------------------------------------------- chrome export


class TestChromeExport:
    @pytest.fixture(scope="class")
    def trace(self):
        with tracing() as tr:
            run_timed(timed_lowered())
        return tr.to_chrome()

    def test_validates(self, trace):
        validate_chrome_trace(trace)  # raises on schema violation

    def test_complete_events_carry_us_timestamps(self, trace):
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert xs
        for e in xs:
            assert e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)

    def test_metadata_names_processes_and_threads(self, trace):
        metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in metas}
        assert {"process_name", "thread_name"} <= names

    def test_validator_rejects_malformed(self):
        with pytest.raises(ReproError):
            validate_chrome_trace({"no_events": []})
        with pytest.raises(ReproError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x",
                                                   "pid": 0, "tid": 0,
                                                   "ts": 0.0}]})
        with pytest.raises(ReproError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x",
                                                    "pid": 0, "tid": 0,
                                                    "ts": 0.0, "dur": -1.0}]})

    def test_json_serializable(self, trace):
        json.dumps(trace)


# ------------------------------------------------------------ bit-identical


class TestObservationOnly:
    def test_ftimm_bit_identical_with_tracing(self):
        shape = GemmShape(384, 24, 640)
        a, b, c0 = random_operands(shape, seed=3)
        c_off, c_on = c0.copy(), c0.copy()
        r_off = ftimm_gemm(384, 24, 640, a=a, b=b, c=c_off, timing="des")
        with tracing():
            r_on = ftimm_gemm(384, 24, 640, a=a, b=b, c=c_on, timing="des")
        assert np.array_equal(c_off, c_on)
        assert r_off.seconds == r_on.seconds
        assert r_off.strategy == r_on.strategy

    def test_serve_bit_identical_with_tracing(self):
        rep_off = serve_run()
        with tracing() as tr:
            rep_on = serve_run()
        assert tr.spans  # the traced run actually traced
        assert rep_off.records == rep_on.records
        assert rep_off.batches == rep_on.batches


# ------------------------------------------------------------ critical path


class TestCriticalPath:
    @pytest.fixture(scope="class")
    def traced_serve(self):
        with tracing() as tr:
            report = serve_run()
        return tr, report

    def test_coverage_at_least_95_percent(self, traced_serve):
        _tr, report = traced_serve
        cp = critical_path(report.records, report.batches)
        assert cp.n_requests > 0
        assert cp.min_coverage >= 0.95

    def test_segments_sum_to_latency(self, traced_serve):
        _tr, report = traced_serve
        cp = critical_path(report.records, report.batches)
        for path in cp.paths:
            assert path.covered_s == pytest.approx(path.latency_s, rel=1e-6)

    def test_from_spans_agrees_with_records(self, traced_serve):
        tr, report = traced_serve
        a = critical_path(report.records, report.batches)
        b = from_spans(tr.spans)
        assert b.n_requests == a.n_requests
        assert b.tail_dominant == a.tail_dominant
        assert b.tail_latency_s() == pytest.approx(a.tail_latency_s(), rel=1e-6)
        b_segs = b.tail_segments()
        for seg, val in a.tail_segments().items():
            assert b_segs[seg] == pytest.approx(val, abs=1e-9)

    def test_dominant_segment_is_largest(self, traced_serve):
        _tr, report = traced_serve
        cp = critical_path(report.records, report.batches)
        segs = cp.tail_segments()
        assert segs[cp.tail_dominant] == max(segs.values())

    def test_render_mentions_dominant(self, traced_serve):
        _tr, report = traced_serve
        text = critical_path(report.records, report.batches).render()
        assert "dominant" in text

    def test_empty_records_give_empty_report(self):
        cp = critical_path([], [])
        assert cp.n_requests == 0
        assert cp.min_coverage == 1.0
        assert "0 completed requests" in cp.render()

    def test_from_spans_rejects_traceless(self):
        with pytest.raises(InputError):
            from_spans([])

    def test_bad_quantile_rejected(self, traced_serve):
        _tr, report = traced_serve
        with pytest.raises(InputError):
            critical_path(report.records, report.batches, quantile=1.5)


# ------------------------------------------------ trace derived from records


def _trace_config(monkeypatch, policy, faulty, degrade, placement):
    # promote on first traffic, so short streams produce placement events
    monkeypatch.setattr(placement_mod, "PROMOTE_AFTER", 1)
    kw = dict(policy=policy, queue_cap=8,
              replicate_b="adaptive" if placement else "off")
    if faulty:
        # one sick cluster: faults, re-dispatches and (with a degrade
        # policy) quarantines all land on cluster 0
        kw.update(
            faults=FaultPlan(seed=0, bitflip_rate=1.0, max_kernel_retries=0),
            cluster_fault_scale=(1.0, 0.0, 0.0, 0.0),
            max_redispatch=1,
        )
    if degrade:
        kw["degrade"] = DegradePolicy()
    return ServeConfig(**kw)


def _check_trace_agrees(report, spans):
    """The derived trace holds exactly the report's facts."""
    count = Counter(s.category for s in spans)
    assert count["admission"] == report.shed
    assert count["batch"] == len(report.batches)
    assert count["request"] == report.n_requests - report.shed
    assert count["degrade"] == (
        len(report.degrade.events) if report.degrade is not None else 0
    )
    assert count["placement"] == (
        len(report.placement.events) if report.placement is not None else 0
    )
    assert count["redispatch"] == sum(
        len(b.attempt_errors) for b in report.batches
    )
    records = critical_path(report.records, report.batches)
    if not records.n_requests:
        return
    traced = from_spans(spans)
    assert [p.req_id for p in traced.paths] == \
        [p.req_id for p in records.paths]
    for a, b in zip(records.paths, traced.paths):
        assert (b.latency_s, b.batch_id, b.cluster) == \
            (a.latency_s, a.batch_id, a.cluster)
        for seg, val in a.segments.items():
            assert b.segments[seg] == pytest.approx(val, abs=1e-12)


class TestDerivedTrace:
    @pytest.mark.parametrize("placement", [False, True],
                             ids=["pinned", "placement"])
    @pytest.mark.parametrize("degrade", [False, True],
                             ids=["plain", "degrade"])
    @pytest.mark.parametrize("faulty", [False, True],
                             ids=["clean", "faults"])
    @pytest.mark.parametrize("policy", ["edf", "least_loaded"])
    def test_trace_agrees_with_records(self, policy, faulty, degrade,
                                       placement, monkeypatch):
        config = _trace_config(monkeypatch, policy, faulty, degrade,
                               placement)
        plain = serve(fast_requests(n=24, rate=300_000), config)
        with tracing() as tr:
            report = serve(fast_requests(n=24, rate=300_000), config)
        assert report.records == plain.records
        assert report.batches == plain.batches
        _check_trace_agrees(report, tr.spans)

    def test_gateway_trace_agrees_with_records(self, monkeypatch):
        config = _trace_config(monkeypatch, "least_loaded", True, True, True)
        plain = gateway_replay(fast_requests(n=24, rate=300_000), config)
        with tracing() as tr:
            report = gateway_replay(fast_requests(n=24, rate=300_000),
                                    config)
        assert report.records == plain.records
        assert report.batches == plain.batches
        assert report.shed and report.degrade.events \
            and report.placement.events
        _check_trace_agrees(report, tr.spans)

    def test_cold_tune_marks_start_of_tune_segment(self):
        with tracing() as tr:
            report = serve(fast_requests(n=24), ServeConfig(warmup=False))
        bucket = {b.batch_id: b.bucket for b in report.batches}
        tunes = {
            (s.start_s, bucket_class(bucket[s.args["batch_id"]]))
            for s in tr.spans if s.category == "tune" and s.name == "tune"
        }
        colds = [s for s in tr.spans if s.name.startswith("cold-tune")]
        assert colds and len(colds) == len(tunes)
        for c in colds:
            key = (c.args["n"], c.args["k"], c.args["dtype"])
            assert (c.start_s, key) in tunes
        assert any(c.start_s > 0 for c in colds)


# -------------------------------------------------------------------- slo


class TestSlo:
    def test_overload_fires(self):
        report = serve_run("overload", OVERLOAD_RPS)
        slo = monitor(report.records)
        assert slo.alerts, "saturated overload mix must fire an alert"
        assert not slo.ok

    def test_light_mix_never_fires(self):
        report = serve_run("transformer", LIGHT_RPS)
        slo = monitor(report.records)
        assert slo.bad_events == 0
        assert slo.alerts == []
        assert slo.ok

    def test_deterministic_replay(self):
        records = serve_run("overload", OVERLOAD_RPS).records

        def stripped(report):
            # drop the wall-clock stamp; everything else must match exactly
            return [
                {k: v for k, v in a.to_record().items() if k != "ts"}
                for a in report.alerts
            ]

        first = monitor(records)
        second = monitor(records)
        assert stripped(first) == stripped(second)
        assert first.peak_burn == second.peak_burn

    def test_one_alert_per_window(self):
        report = serve_run("overload", OVERLOAD_RPS)
        slo = monitor(report.records)
        windows = [a.window for a in slo.alerts]
        assert len(windows) == len(set(windows))

    def test_min_events_guard(self):
        # a lone early failure in a tiny stream must not page
        report = serve_run("overload", OVERLOAD_RPS, n=4)
        slo = monitor(report.records, SloPolicy(min_events=8))
        assert slo.alerts == []

    def test_alert_records_append_and_read_back(self, tmp_path):
        report = serve_run("overload", OVERLOAD_RPS)
        slo = monitor(report.records)
        log = tmp_path / "runs.jsonl"
        n = slo.append_to_runlog(log)
        assert n == len(slo.alerts) > 0
        rows = read_records(log, SLO_SCHEMA)
        assert len(rows) == n
        assert all(r["kind"] == "slo_alert" for r in rows)
        # the perf-schema reader skips them by design
        assert read_records(log) == []

    def test_policy_validation(self):
        with pytest.raises(PlanError):
            SloPolicy(objective=1.5)
        with pytest.raises(PlanError):
            SloPolicy(windows=())
        with pytest.raises(PlanError):
            BurnWindow("w", window_s=-1.0, threshold=1.0)
        with pytest.raises(PlanError):
            monitor([])

    def test_duplicate_window_names_rejected(self):
        # peak_burn is keyed by window name: a duplicate would drop one
        with pytest.raises(PlanError, match="duplicate window names"):
            SloPolicy(windows=(
                BurnWindow("fast", window_s=5e-3, threshold=10.0),
                BurnWindow("fast", window_s=5e-2, threshold=4.0),
            ))


def _outcome(t, bad, shed=False):
    """A stand-in request record with its outcome at ``t``."""
    if shed:
        return SimpleNamespace(status=SHED, arrival_s=t, finish_s=None,
                               deadline_met=None)
    return SimpleNamespace(status=COMPLETED, arrival_s=0.0, finish_s=t,
                           deadline_met=not bad)


def _replay(events, policy):
    """Reference monitor: add each time-sorted event to one OnlineBurn
    per window and read the burn at its time; the window's counts are
    recounted by brute force over ``(t - window_s, t]``."""
    events = sorted(events, key=lambda e: e[0])
    peaks, alerts = {}, []
    for w in policy.windows:
        est = OnlineBurn(objective=policy.objective, window_s=w.window_s,
                         min_events=policy.min_events)
        peak, fired = 0.0, False
        for i, (t, bad) in enumerate(events):
            est.add(t, bad)
            burn = est.burn_at(t)
            peak = max(peak, burn)
            inside = [b for u, b in events[:i + 1] if t - w.window_s < u]
            if len(inside) >= policy.min_events:
                assert burn == (sum(inside) / len(inside)) / policy.budget
            else:
                assert burn == 0.0
            if not fired and burn >= w.threshold:
                fired = True
                alerts.append((w.name, t, burn, sum(inside), len(inside)))
        peaks[w.name] = peak
    return peaks, sorted(alerts, key=lambda a: (a[1], a[0]))


class TestSloWindowRule:
    """``monitor`` is an OnlineBurn replay with its ``(t - w, t]`` edge."""

    TICK = 2.0 ** -10      # exact in binary, so t - window_s lands on events
    POLICY = SloPolicy(
        objective=0.9,
        windows=(BurnWindow("fast", window_s=8 * TICK, threshold=3.0),
                 BurnWindow("slow", window_s=32 * TICK, threshold=2.0)),
        min_events=4,
    )

    @pytest.mark.parametrize("seed", range(20))
    def test_monitor_matches_online_replay(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        # few distinct instants: timestamp ties and exact window edges
        ticks = rng.integers(0, n // 2, n)
        bads = rng.random(n) < rng.uniform(0.05, 0.6)
        sheds = rng.random(n) < 0.2
        records = [
            _outcome(float(k) * self.TICK, bool(b), shed=bool(b and s))
            for k, b, s in zip(ticks, bads, sheds)
        ]
        events = [(float(k) * self.TICK, bool(b))
                  for k, b in zip(ticks, bads)]
        peaks, alerts = _replay(events, self.POLICY)
        slo = monitor(records, self.POLICY)
        assert slo.peak_burn == peaks
        assert [(a.window, a.at_s, a.burn, a.bad, a.total)
                for a in slo.alerts] == alerts

    def test_event_exactly_one_window_old_is_out(self):
        # a bad event at 0.5 and two good ones; at t = 1.5 the bad one
        # sits exactly at t - window_s, so the window holds two events,
        # below min_events: no burn, no alert
        policy = SloPolicy(
            objective=0.9,
            windows=(BurnWindow("w", window_s=1.0, threshold=3.0),),
            min_events=3,
        )
        records = [_outcome(0.5, True), _outcome(1.0, False),
                   _outcome(1.5, False)]
        slo = monitor(records, policy)
        assert slo.alerts == []
        assert slo.peak_burn == {"w": 0.0}
        assert _replay([(0.5, True), (1.0, False), (1.5, False)],
                       policy) == ({"w": 0.0}, [])
