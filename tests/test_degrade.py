"""Graceful degradation: priority classes, burn shedding, quarantine, chaos.

The contracts under test:

* ``degrade=None`` keeps the serve loop exactly as before — no degrade
  report, no priority labels, bit-identical replay;
* proactive shedding is *ordered*: loose-SLO bulk loses queue headroom
  (``class_shed``) and its burn budget (``burn_shed``) while tight-SLO
  interactive work is still admitted, and every shed carries a typed
  reason;
* the burn-driven shed fires under a genuinely burning overload mix and
  never on a light one;
* a sick cluster is quarantined, probed after its cooldown and recovered
  on a clean probe — deterministically, with every completed response
  still bit-identical to a fault-free run on the surviving clusters;
* :func:`chaos_serve` audits all of that end to end, independently of
  the server's own verification.
"""

import numpy as np
import pytest

from repro.errors import OverloadError, PlanError
from repro.faults.plan import FaultPlan
from repro.hw.config import default_machine
from repro.obs import Tracer
from repro.obs.trace import head_sample
from repro.serve import (
    BULK,
    INTERACTIVE,
    DegradePolicy,
    GemmRequest,
    HealthPolicy,
    OnlineBurn,
    PriorityClass,
    Scheduler,
    ServeConfig,
    chaos_serve,
    make_requests,
    serve,
    serve_spans,
)
from repro.core.shapes import GemmShape
from repro.serve.request import COMPLETED, FAILED, SHED


def _req(req_id=0, arrival=0.0, deadline=None, priority=None,
         shape=GemmShape(8, 8, 8)):
    rng = np.random.default_rng(req_id)
    return GemmRequest(
        req_id=req_id, arrival_s=arrival, shape=shape,
        a=rng.standard_normal((shape.m, shape.k)).astype(np.float32),
        b=rng.standard_normal((shape.k, shape.n)).astype(np.float32),
        c=rng.standard_normal((shape.m, shape.n)).astype(np.float32),
        deadline_s=deadline, priority=priority,
    )


class TestPolicy:
    def test_explicit_label_wins(self):
        pol = DegradePolicy()
        # a loose deadline would classify as bulk, but the label rules
        req = _req(deadline=1.0, priority="interactive")
        assert pol.classify(req) is pol.classes[0]

    def test_unknown_label_raises(self):
        with pytest.raises(PlanError, match="unknown priority"):
            DegradePolicy().classify(_req(priority="platinum"))

    def test_budget_classification(self):
        pol = DegradePolicy()
        assert pol.classify(_req(arrival=1.0, deadline=1.0 + 1e-3)).name \
            == "interactive"
        assert pol.classify(_req(arrival=1.0, deadline=1.0 + 5e-2)).name \
            == "bulk"
        assert pol.classify(_req(deadline=None)).name == "bulk"

    def test_validation(self):
        with pytest.raises(PlanError):
            PriorityClass("x", admit_above=0.0)
        with pytest.raises(PlanError):
            PriorityClass("x", admit_above=1.5)
        with pytest.raises(PlanError):
            DegradePolicy(classes=())
        with pytest.raises(PlanError):
            DegradePolicy(classes=(INTERACTIVE, INTERACTIVE))

    @pytest.mark.parametrize("field", [
        "burn_objective", "burn_window_s", "burn_threshold",
        "burn_min_events",
    ])
    def test_removed_burn_fields_rejected(self, field):
        # the burn window comes from SloPolicy, the threshold is
        # BURN_THRESHOLD: DegradePolicy holds only classes and health
        with pytest.raises(TypeError, match=field):
            DegradePolicy(**{field: 1.0})

    def test_default_classes_shape(self):
        assert INTERACTIVE.admit_above == 1.0 and not INTERACTIVE.burn_shed
        assert BULK.admit_above < 1.0 and BULK.burn_shed


class TestOverloadError:
    def test_reasons_are_typed(self):
        for reason in OverloadError.REASONS:
            err = OverloadError(3, 64, reason=reason)
            assert err.reason == reason
            assert err.req_id == 3 and err.capacity == 64

    def test_legacy_message_preserved(self):
        # older tooling greps for "queue full" in the error string
        assert "queue full" in str(OverloadError(1, 8))

    def test_bad_reason_rejected(self):
        with pytest.raises(ValueError):
            OverloadError(1, 8, reason="bored")


class TestOnlineBurn:
    def test_min_events_guard(self):
        burn = OnlineBurn(objective=0.99, window_s=1.0, min_events=4)
        for t in (0.1, 0.2, 0.3):
            burn.add(t, True)
        assert burn.burn_at(0.4) == 0.0
        burn.add(0.35, True)
        assert burn.burn_at(0.4) == pytest.approx(1.0 / 0.01)

    def test_window_and_fraction(self):
        burn = OnlineBurn(objective=0.9, window_s=1.0, min_events=1)
        for i in range(10):
            burn.add(i * 0.1, bad=(i < 2))  # bad at t=0.0, 0.1
        # at t=0.95 the window (−0.05, 0.95] holds all 10: 2/10 bad
        assert burn.burn_at(0.95) == pytest.approx(0.2 / 0.1)
        # at t=1.5 the window (0.5, 1.5] holds 4 events, none bad
        assert burn.burn_at(1.5) == 0.0

    def test_causal(self):
        burn = OnlineBurn(objective=0.9, window_s=1.0, min_events=1)
        burn.add(0.5, True)
        # events in the future of `now` are invisible
        assert burn.burn_at(0.4) == 0.0
        assert burn.burn_at(0.5) > 0.0

    def test_out_of_order_feeding(self):
        a = OnlineBurn(objective=0.9, window_s=1.0, min_events=1)
        b = OnlineBurn(objective=0.9, window_s=1.0, min_events=1)
        events = [(0.3, True), (0.1, False), (0.2, False)]
        for t, bad in events:
            a.add(t, bad)
        for t, bad in sorted(events):
            b.add(t, bad)
        assert a.burn_at(0.4) == b.burn_at(0.4)

    def test_peak_is_read_after_every_event(self):
        # the good event at 0.3 lifts the window to min_events: the read
        # after it is the peak, and add returns that read
        burn = OnlineBurn(objective=0.9, window_s=1.0, min_events=3)
        assert burn.add(0.1, True) == 0.0
        assert burn.add(0.2, True) == 0.0
        assert burn.add(0.3, False) == pytest.approx((2 / 3) / 0.1)
        assert burn.peak == burn.burn_at(0.3)
        assert burn.counts(0.3) == (2, 3)


class TestAdmissionOrdering:
    def test_no_policy_keeps_legacy_behavior(self):
        reqs = make_requests("overload", rate_rps=480_000, n_requests=60,
                             seed=3)
        cfg = ServeConfig(policy="least_loaded", queue_cap=8)
        rep = serve(reqs, cfg)
        assert rep.degrade is None
        assert all(r.priority is None for r in rep.records)
        shed = [r for r in rep.records if r.status == SHED]
        assert shed and all("queue full" in r.error for r in shed)
        # the typed reason is recorded even without a policy — the only
        # reactive one; proactive reasons need degrade
        assert all(r.shed_reason == "queue_full" for r in shed)
        assert all(r.shed_reason is None for r in rep.records
                   if r.status != SHED)

    def test_bulk_sheds_before_interactive(self):
        reqs = make_requests("overload", rate_rps=480_000, n_requests=150,
                             seed=42)
        cfg = ServeConfig(policy="least_loaded", queue_cap=64,
                          degrade=DegradePolicy(health=None))
        rep = serve(reqs, cfg)
        d = rep.degrade
        assert d is not None and d.shed_class > 0
        class_shed = [r for r in rep.records
                      if r.shed_reason == "class_shed"]
        # proactive class sheds hit bulk only — never interactive
        assert class_shed
        assert {r.priority for r in class_shed} == {"bulk"}
        # interactive work arriving after bulk started shedding is
        # still admitted and completed
        first = min(r.arrival_s for r in class_shed)
        assert any(
            r.priority == "interactive" and r.status == COMPLETED
            and r.arrival_s > first
            for r in rep.records
        )
        # every shed carries its typed reason, and the report adds up
        shed = [r for r in rep.records if r.status == SHED]
        assert all(r.shed_reason in OverloadError.REASONS for r in shed)
        assert d.shed_queue_full + d.shed_class + d.shed_burn == len(shed)
        assert sum(d.shed_by_class.values()) == len(shed)

    def test_burn_shed_fires_under_sustained_overload(self):
        reqs = make_requests("overload", rate_rps=120_000, n_requests=300,
                             seed=42, arrivals="bursty")
        cfg = ServeConfig(policy="least_loaded", queue_cap=32,
                          degrade=DegradePolicy(health=None))
        rep = serve(reqs, cfg)
        d = rep.degrade
        assert d.shed_burn > 0
        assert d.peak_burn >= d.burn_threshold
        burn_shed = [r for r in rep.records if r.shed_reason == "burn_shed"]
        assert {r.priority for r in burn_shed} == {"bulk"}

    def test_burn_shed_never_fires_on_light_load(self):
        reqs = make_requests("transformer", rate_rps=20_000, n_requests=80,
                             seed=1)
        cfg = ServeConfig(policy="least_loaded",
                          degrade=DegradePolicy(health=None))
        rep = serve(reqs, cfg)
        d = rep.degrade
        assert rep.shed == 0 and rep.failed == 0
        assert d.shed_burn == 0 and d.shed_class == 0
        assert d.peak_burn == 0.0

    def test_degraded_run_replays_bit_identical(self):
        def run():
            reqs = make_requests("overload", rate_rps=240_000,
                                 n_requests=80, seed=9, arrivals="bursty")
            cfg = ServeConfig(policy="least_loaded", queue_cap=24,
                              degrade=DegradePolicy())
            return serve(reqs, cfg)

        a, b = run(), run()
        assert a.latency_table() == b.latency_table()
        assert a.degrade.shed_by_class == b.degrade.shed_by_class
        assert [e.describe() for e in a.degrade.events] \
            == [e.describe() for e in b.degrade.events]


SICK_FIRST = (1.0, 0.0, 0.0, 0.0)


class TestQuarantine:
    def test_breaker_state_machine(self, machine):
        sched = Scheduler(
            n_clusters=2, policy="least_loaded", machine=machine,
            health=HealthPolicy(fault_threshold=2, cooldown_s=1e-3,
                                backoff=2.0, max_cooldown_s=4e-3),
        )
        h = sched.health[0]
        sched.note_fault(0, now=0.0)
        assert h.state == "healthy"          # one fault: below threshold
        sched.note_fault(0, now=0.1)
        assert h.state == "quarantined" and h.until_s == pytest.approx(0.101)
        # quarantined cluster is not eligible before expiry
        assert [b.idx for b in sched._eligible(0.1005)] == [1]
        assert sched.next_ready_s() == 0.0   # cluster 1 is idle
        # with the healthy cluster busy past the cooldown, the earliest
        # ready time is the quarantine expiry, not the busy horizon
        sched.backends[1].charge(0.0, 0.2)
        assert sched.next_ready_s() == pytest.approx(0.101)
        sched.backends[1].busy_until_s = 0.0
        # first selection after expiry turns it into a probe
        b = sched.route_retry(0.102, exclude={1})
        assert b.idx == 0 and h.state == "probing"
        # a fault while probing re-quarantines with backed-off cooldown
        sched.note_fault(0, now=0.102)
        assert h.state == "quarantined"
        assert h.cooldown_s == pytest.approx(2e-3)
        # ... and a clean probe recovers it
        sched.route_retry(0.105, exclude=set())
        sched.note_success(0, now=0.106)
        assert h.state == "healthy" and h.cooldown_s == 0.0
        kinds = [e.kind for e in sched.degrade_events]
        assert kinds == ["quarantine", "probe", "quarantine", "probe",
                         "recover"]

    def test_all_quarantined_never_deadlocks(self, machine):
        sched = Scheduler(
            n_clusters=2, policy="least_loaded", machine=machine,
            health=HealthPolicy(fault_threshold=1, cooldown_s=1.0,
                                max_cooldown_s=4.0),
        )
        sched.note_fault(0, now=0.0)
        sched.note_fault(1, now=0.0)
        assert all(h.state == "quarantined" for h in sched.health)
        # the full pool is the fallback — a batch always routes somewhere
        assert len(sched._eligible(0.1)) == 2
        assert sched.pick_backend(0.1) is not None

    def test_sick_cluster_quarantined_and_results_unaffected(self):
        def stream():
            return make_requests("overload", rate_rps=120_000,
                                 n_requests=100, seed=42)

        sick = ServeConfig(
            policy="least_loaded", queue_cap=256,
            degrade=DegradePolicy(),
            faults=FaultPlan(seed=7, bitflip_rate=1.0,
                             max_kernel_retries=0),
            cluster_fault_scale=SICK_FIRST,
            max_redispatch=2,
        )
        reqs = stream()
        rep = serve(reqs, sick)
        d = rep.degrade
        assert rep.failed == 0 and rep.completed == rep.n_requests
        assert d.faults > 0 and d.quarantines >= 1
        assert any(e.kind == "quarantine" and e.cluster == 0
                   for e in d.events)
        # completed bits are identical to a fault-free run: the sick
        # cluster changed the timeline, never the arithmetic
        clean_reqs = stream()
        serve(clean_reqs, ServeConfig(policy="least_loaded",
                                      queue_cap=256))
        by_id = {r.req_id: r for r in clean_reqs}
        for req in reqs:
            assert np.array_equal(req.c, by_id[req.req_id].c)

    def test_faults_counted_without_a_health_policy(self):
        """Failed attempts are counted from the batch records, so the
        count does not depend on the breaker being on."""
        rep = serve(
            make_requests("overload", rate_rps=60_000, n_requests=60,
                          seed=1),
            ServeConfig(
                faults=FaultPlan(seed=1, bitflip_rate=0.3,
                                 max_kernel_retries=0),
                degrade=DegradePolicy(health=None),
            ),
        )
        attempts = sum(len(b.fault_clusters) for b in rep.batches)
        assert attempts == rep.redispatches == 48
        assert rep.degrade.faults == attempts
        assert rep.degrade.quarantines == 0 and not rep.degrade.events

    def test_quarantine_recovery_round_trip_deterministic(self):
        cfg = ServeConfig(
            policy="least_loaded", queue_cap=256,
            degrade=DegradePolicy(health=HealthPolicy(
                fault_threshold=1, cooldown_s=2e-4)),
            # members draw faults from their own seeds; seed 4 is one
            # whose stream shows the full life cycle on this mix
            faults=FaultPlan(seed=4, bitflip_rate=1e-3,
                             max_kernel_retries=0),
            cluster_fault_scale=SICK_FIRST,
            max_redispatch=3,
        )

        def run():
            reqs = make_requests("overload", rate_rps=120_000,
                                 n_requests=200, seed=42)
            return serve(reqs, cfg)

        rep = run()
        d = rep.degrade
        assert rep.failed == 0
        assert d.quarantines >= 2 and d.probes >= 2 and d.recoveries >= 1
        kinds = [e.kind for e in d.events]
        # the full life cycle, in timeline order: a quarantine, then a
        # probe, then a recovery
        assert kinds.index("quarantine") < kinds.index("probe") \
            < kinds.index("recover")
        # a faulted probe re-quarantines with a backed-off cooldown
        assert any(e.kind == "quarantine" and "probe faulted" in e.detail
                   for e in d.events)
        again = run()
        assert rep.latency_table() == again.latency_table()
        assert [e.describe() for e in d.events] \
            == [e.describe() for e in again.degrade.events]

    def test_scale_length_validated(self):
        reqs = make_requests("overload", rate_rps=60_000, n_requests=8,
                             seed=0)
        cfg = ServeConfig(cluster_fault_scale=(1.0, 0.0))
        with pytest.raises(PlanError, match="cluster_fault_scale"):
            serve(reqs, cfg)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, bad):
        # min(1.0, rate * nan) is 1.0 and 0 * inf is nan: either entry
        # would silently run that cluster at full fault rates
        with pytest.raises(PlanError, match="cluster_fault_scale"):
            ServeConfig(cluster_fault_scale=(1.0, bad, 0.0, 0.0))


class TestChaosServe:
    def test_contract_holds_under_chaos(self):
        reqs = make_requests("overload", rate_rps=120_000, n_requests=60,
                             seed=42)
        cfg = ServeConfig(
            policy="least_loaded", queue_cap=32,
            degrade=DegradePolicy(),
            faults=FaultPlan(seed=7, bitflip_rate=1.0,
                             max_kernel_retries=0),
            cluster_fault_scale=SICK_FIRST,
            max_redispatch=2,
        )
        chaos = chaos_serve(reqs, cfg)
        assert chaos.ok
        assert chaos.silent == [] and chaos.untyped == []
        assert chaos.deterministic is True
        assert "contract: OK" in chaos.describe()

    @pytest.mark.parametrize("drift", ["finish_s", "c_bit"])
    def test_replay_check_is_bit_exact(self, monkeypatch, drift):
        """A replay off by 1e-10 s in one finish time, or by one bit of
        one served C, is not deterministic: a latency table rounded to
        1 us would hide both."""
        import dataclasses
        import importlib

        server = importlib.import_module("repro.serve.server")
        real_serve = server.serve
        runs = []

        def drifting_serve(requests, config, **kwargs):
            report = real_serve(requests, config, **kwargs)
            runs.append(report)
            if len(runs) == 2:
                i = next(i for i, r in enumerate(report.records)
                         if r.status == COMPLETED)
                rec = report.records[i]
                if drift == "finish_s":
                    report.records[i] = dataclasses.replace(
                        rec, finish_s=rec.finish_s + 1e-10)
                else:
                    c = next(r.c for r in requests if r.req_id == rec.req_id)
                    c.view(np.uint8).reshape(-1)[0] ^= 1
            return report

        monkeypatch.setattr(server, "serve", drifting_serve)
        reqs = make_requests("overload", rate_rps=120_000, n_requests=24,
                             seed=5)
        chaos = chaos_serve(reqs, ServeConfig(queue_cap=64))
        assert len(runs) == 2
        assert chaos.deterministic is False

    def test_inputs_left_pristine(self):
        reqs = make_requests("overload", rate_rps=120_000, n_requests=24,
                             seed=5)
        before = [r.c.copy() for r in reqs]
        chaos_serve(reqs, ServeConfig(queue_cap=64), replay=False)
        assert all(np.array_equal(b, r.c) for b, r in zip(before, reqs))

    def test_every_loss_is_typed_even_when_all_fail(self):
        reqs = make_requests("overload", rate_rps=120_000, n_requests=30,
                             seed=11)
        # every cluster is sick and the re-dispatch budget is zero:
        # everything fails, nothing silently
        cfg = ServeConfig(
            queue_cap=64,
            faults=FaultPlan(seed=3, bitflip_rate=1.0,
                             max_kernel_retries=0),
            max_redispatch=0,
        )
        chaos = chaos_serve(reqs, cfg, replay=False)
        assert chaos.untyped == [] and chaos.silent == []
        assert chaos.report.failed == chaos.report.n_requests
        assert all(r.status == FAILED for r in chaos.report.records)


class TestTraceSampling:
    def test_head_sample_deterministic_and_bounded(self):
        assert head_sample(42, 1.0) and not head_sample(42, 0.0)
        verdicts = [head_sample(k, 0.5) for k in range(2000)]
        assert verdicts == [head_sample(k, 0.5) for k in range(2000)]
        frac = sum(verdicts) / len(verdicts)
        assert 0.4 < frac < 0.6
        # different seeds decorrelate the head
        assert [head_sample(k, 0.5, seed=1) for k in range(2000)] \
            != verdicts

    def test_clean_requests_sampled_failures_kept(self):
        reqs = make_requests("overload", rate_rps=120_000,
                             n_requests=60, seed=42)
        rep = serve(reqs, ServeConfig(
            policy="least_loaded", queue_cap=32,
            faults=FaultPlan(seed=3, bitflip_rate=1.0,
                             max_kernel_retries=0),
            max_redispatch=0,
            # one sick cluster: its batches fail, the others complete
            cluster_fault_scale=(1.0, 0.0, 0.0, 0.0),
        ))

        def request_spans(rate):
            tracer = Tracer()
            serve_spans(rep, tracer, sample=rate)
            return [s for s in tracer.spans if s.category == "request"]

        # rate 0 drops exactly the clean completions; failures and SLO
        # misses always keep their spans
        must_keep = [
            r for r in rep.records
            if r.status == FAILED
            or (r.status == COMPLETED and r.deadline_met is False)
        ]
        assert must_keep
        kept = request_spans(0.0)
        assert sorted(s.args["req_id"] for s in kept) == \
            [r.req_id for r in must_keep]
        placed = [r for r in rep.records if r.status != SHED]
        assert len(request_spans(1.0)) == len(placed) > len(must_keep)

    def test_trace_sample_validated(self):
        rep = serve([_req(0)], ServeConfig())
        with pytest.raises(PlanError, match="sample"):
            serve_spans(rep, Tracer(), sample=1.5)
