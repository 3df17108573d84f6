"""The serving subsystem: batching, scheduling, admission, accounting.

The contracts under test are the ones the module docstrings promise:

* same seed + config replays the identical request-level latency table;
* every admitted request completes **bit-identical** to a standalone
  ``ftimm_gemm`` of its own shape, or is counted shed/failed — never
  silently dropped;
* shedding is typed (`OverloadError` semantics) and visible in the
  records and metrics;
* EDF meets strictly more deadlines than FIFO on the reference overload
  mix, and batching beats the one-call-per-request baseline at
  saturation.
"""

from dataclasses import replace as dc_replace

import numpy as np
import pytest

from repro.core.ftimm import ftimm_gemm
from repro.core.shapes import GemmShape
from repro.errors import InputError, PlanError, ShapeError
from repro.faults.plan import FaultPlan
from repro.obs import collecting
from repro.serve import (
    GemmRequest,
    ServeConfig,
    ShapeBucketBatcher,
    ShapeClass,
    bucket_key,
    get_mix,
    make_requests,
    serve,
    sweep,
)
from repro.serve.request import COMPLETED, FAILED, SHED

# small, fast mix for the mechanics tests (policy tests use "overload")
FAST_MIX = [
    ShapeClass("tiny", GemmShape(32, 16, 16), weight=2.0,
               slo_s=2e-3, n_b_variants=1),
    ShapeClass("wide", GemmShape(16, 64, 48), weight=1.0,
               slo_s=5e-3, n_b_variants=2),
]


def fast_requests(n=24, rate=50000, seed=0, **kw):
    return make_requests(FAST_MIX, rate_rps=rate, n_requests=n,
                         seed=seed, **kw)


class TestLoadgen:
    def test_stream_is_deterministic(self):
        r1 = fast_requests(seed=5)
        r2 = fast_requests(seed=5)
        assert [r.arrival_s for r in r1] == [r.arrival_s for r in r2]
        assert all(np.array_equal(a.a, b.a) for a, b in zip(r1, r2))

    def test_arrivals_increase(self):
        reqs = fast_requests(n=50)
        times = [r.arrival_s for r in reqs]
        assert times == sorted(times)
        assert times[0] > 0

    def test_b_variants_are_copies_with_equal_bits(self):
        reqs = [r for r in fast_requests(n=30) if r.klass == "tiny"]
        assert len(reqs) >= 2
        assert reqs[0].b is not reqs[1].b          # distinct objects
        assert np.array_equal(reqs[0].b, reqs[1].b)  # same contents

    def test_bursty_same_mean_load(self):
        pois = fast_requests(n=400, rate=10000, arrivals="poisson")
        burst = fast_requests(n=400, rate=10000, arrivals="bursty")
        assert burst[-1].arrival_s == pytest.approx(
            pois[-1].arrival_s, rel=0.2
        )

    def test_deadlines_follow_slo(self):
        req = fast_requests(n=1)[0]
        cls = {c.name: c for c in FAST_MIX}[req.klass]
        assert req.deadline_s == pytest.approx(req.arrival_s + cls.slo_s)

    def test_unknown_mix_rejected(self):
        with pytest.raises(PlanError):
            get_mix("nope")

    def test_bad_params_rejected(self):
        with pytest.raises(PlanError):
            make_requests(FAST_MIX, rate_rps=0, n_requests=10)
        with pytest.raises(PlanError):
            make_requests([], rate_rps=1000, n_requests=10)
        with pytest.raises(PlanError):
            make_requests(FAST_MIX, rate_rps=1000, n_requests=10,
                          arrivals="adversarial")


class TestBatcher:
    def test_coalesces_equal_content_bs(self):
        reqs = [r for r in fast_requests(n=30) if r.klass == "tiny"][:4]
        batcher = ShapeBucketBatcher(max_batch=4)
        out = [batcher.add(r, bucket_key(r), r.arrival_s) for r in reqs]
        assert [batch for batch, _opened in out[:3]] == [None, None, None]
        # only the first request opens the bucket (and arms its timer)
        assert [opened for _batch, opened in out] == [
            bucket_key(reqs[0]), None, None, None,
        ]
        batch = out[3][0]
        assert batch is not None and batch.n_items == 4
        assert batch.stacked_m == sum(r.shape.m for r in reqs)

    def test_copies_of_b_share_a_bucket(self):
        reqs = [r for r in fast_requests(n=30) if r.klass == "tiny"][:2]
        assert reqs[0].b is not reqs[1].b
        assert bucket_key(reqs[0]) == bucket_key(reqs[1])

    def test_max_wait_closes_stale_bucket(self):
        req = fast_requests(n=1)[0]
        batcher = ShapeBucketBatcher(max_batch=16, max_wait_s=1e-4)
        batch, key = batcher.add(req, bucket_key(req), req.arrival_s)
        assert batch is None and key == bucket_key(req)
        assert batcher.close_due(key, req.arrival_s + 5e-5) is None
        batch = batcher.close_due(key, req.arrival_s + 2e-4)
        assert batch is not None and batch.n_items == 1
        assert batcher.waiting == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_max_wait_rejected(self, bad):
        # NaN never fires a bucket timeout; inf makes latency inf
        with pytest.raises(PlanError, match="max_wait_s"):
            serve(fast_requests(n=4), ServeConfig(max_wait_s=bad))

    def test_batch_deadline_is_earliest_member(self):
        reqs = [r for r in fast_requests(n=30) if r.klass == "tiny"][:3]
        batcher = ShapeBucketBatcher(max_batch=3)
        batch, _opened = [
            batcher.add(r, bucket_key(r), r.arrival_s) for r in reqs
        ][-1]
        assert batch.deadline_s == min(r.deadline_s for r in reqs)


class TestServeContracts:
    def test_deterministic_replay(self):
        cfg = ServeConfig()
        t1 = serve(fast_requests(seed=9), cfg).latency_table()
        t2 = serve(fast_requests(seed=9), cfg).latency_table()
        assert t1 == t2

    def test_no_silent_drops(self):
        rep = serve(fast_requests(n=40), ServeConfig(queue_cap=4))
        statuses = {r.status for r in rep.records}
        assert statuses <= {COMPLETED, SHED, FAILED}
        assert rep.completed + rep.shed + rep.failed == rep.n_requests
        assert rep.n_requests == 40

    def test_completed_bits_match_standalone(self):
        reqs = fast_requests(n=16, seed=2)
        originals = {r.req_id: (r.a.copy(), r.b.copy(), r.c.copy())
                     for r in reqs}
        rep = serve(reqs, ServeConfig())
        assert rep.completed == 16
        for req in reqs:
            a, b, c0 = originals[req.req_id]
            ref = c0.copy()
            ftimm_gemm(req.shape.m, req.shape.n, req.shape.k,
                       a=a, b=b, c=ref, timing="none")
            assert np.array_equal(req.c, ref)

    def test_shedding_is_counted_and_typed(self):
        with collecting() as reg:
            rep = serve(fast_requests(n=40, rate=500000),
                        ServeConfig(queue_cap=2))
        assert rep.shed > 0
        shed_recs = [r for r in rep.records if r.status == SHED]
        assert len(shed_recs) == rep.shed
        assert all("queue full" in (r.error or "") for r in shed_recs)
        snap = reg.snapshot()
        assert snap["serve/requests/shed"]["value"] == rep.shed

    def test_deadline_missed_metric_is_the_reports(self):
        """One definition: sheds and failures miss their deadline too."""
        with collecting() as reg:
            rep = serve(make_requests("overload", rate_rps=240_000,
                                      n_requests=150, seed=2),
                        ServeConfig(queue_cap=16))
        assert rep.shed == 42 and rep.completed == 108
        snap = reg.snapshot()
        assert snap["serve/deadline/missed"]["value"] == \
            rep.deadline_missed == 42
        assert snap["serve/deadline/met"]["value"] == rep.deadline_met

    def test_warmup_avoids_cold_tunes(self):
        with collecting() as reg:
            serve(fast_requests(n=12), ServeConfig(warmup=True))
        assert "serve/tune/cold" not in reg.snapshot()
        with collecting() as reg:
            serve(fast_requests(n=12), ServeConfig(warmup=False))
        assert reg.snapshot()["serve/tune/cold"]["value"] > 0

    def test_latency_decomposition_adds_up(self):
        rep = serve(fast_requests(n=20), ServeConfig())
        for r in rep.records:
            if r.status != COMPLETED:
                continue
            assert r.queue_s >= 0 and r.batch_s >= 0 and r.compute_s > 0
            assert r.latency_s == pytest.approx(
                r.queue_s + r.batch_s + r.compute_s
            )

    def test_latency_histograms_emitted(self):
        with collecting() as reg:
            rep = serve(fast_requests(n=20), ServeConfig())
        snap = reg.snapshot()
        hist = snap["serve/latency/total_s"]
        assert hist["type"] == "histogram"
        assert hist["count"] == rep.completed
        assert hist["p99"] >= hist["p50"] > 0

    def test_empty_stream_rejected(self):
        with pytest.raises(PlanError):
            serve([], ServeConfig())

    def test_unknown_policy_rejected(self):
        with pytest.raises(PlanError):
            serve(fast_requests(n=4), ServeConfig(policy="magic"))


class TestFaultsUnderServe:
    def test_fault_storm_fails_batches_honestly(self):
        plan = FaultPlan(seed=3, bitflip_rate=1.0, max_kernel_retries=0)
        rep = serve(fast_requests(n=12),
                    ServeConfig(faults=plan, max_redispatch=1))
        assert rep.failed == 12
        assert rep.completed == 0
        failed = [r for r in rep.records if r.status == FAILED]
        assert all(r.error for r in failed)
        assert rep.redispatches > 0
        # lost time from failed attempts is charged to the batches
        assert sum(b.lost_s for b in rep.batches) > 0

    def test_redispatch_recovers_from_transient_faults(self):
        plan = FaultPlan(seed=2, bitflip_rate=0.05, max_kernel_retries=0)
        rep = serve(fast_requests(n=16, seed=4),
                    ServeConfig(faults=plan, max_redispatch=6))
        assert rep.completed == 16
        assert rep.failed == 0
        assert rep.redispatches > 0


class TestPolicies:
    """The reference overload experiment the CI smoke gate also runs."""

    def _deadlines(self, policy, seed=42):
        reqs = make_requests("overload", rate_rps=120000,
                             n_requests=150, seed=seed)
        rep = serve(reqs, ServeConfig(policy=policy, queue_cap=256))
        return rep.deadline_met

    def test_edf_beats_fifo_on_deadlines(self):
        assert self._deadlines("edf") > self._deadlines("fifo")

    def test_least_loaded_beats_fifo_on_deadlines(self):
        assert self._deadlines("least_loaded") > self._deadlines("fifo")

    def test_batching_beats_naive_at_saturation(self):
        cfg = ServeConfig(policy="edf", queue_cap=256)
        result = sweep("overload", [60000.0, 240000.0], n_requests=150,
                       seed=42, config=cfg, compare_naive=True)
        assert result.batching_wins_at_saturation


class TestSweep:
    def test_sweep_shapes_and_ordering(self):
        res = sweep(FAST_MIX, [20000.0, 40000.0], n_requests=16, seed=0)
        assert len(res.points) == 2
        assert res.points[0].offered_rps < res.points[1].offered_rps
        rendered = res.render()
        assert "goodput" in rendered

    def test_unsorted_loads_rejected(self):
        with pytest.raises(PlanError):
            sweep(FAST_MIX, [40000.0, 20000.0], n_requests=8)

    def test_record_fields_are_json_shaped(self):
        import json

        res = sweep(FAST_MIX, [30000.0], n_requests=8, seed=1,
                    compare_naive=True)
        fields = res.to_record_fields()
        json.dumps(fields)  # must be serializable as-is
        assert fields["sweep"][0]["goodput_rps"] > 0
        assert len(fields["naive_sweep"]) == 1


class TestRequestValidation:
    def test_operand_shape_mismatch_rejected(self):
        shape = GemmShape(8, 4, 4)
        a = np.zeros((8, 4), np.float32)
        b = np.zeros((4, 4), np.float32)
        with pytest.raises(ShapeError):
            GemmRequest(req_id=0, arrival_s=0.0, shape=shape,
                        a=a, b=b, c=np.zeros((8, 5), np.float32))

    @pytest.mark.parametrize("operand", ["a", "b", "c"])
    def test_operand_that_is_not_an_array_is_an_input_error(self, operand):
        shape = GemmShape(2, 2, 2)
        operands = {name: np.zeros((2, 2), np.float32) for name in "abc"}
        operands[operand] = [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(InputError, match=f"{operand.upper()} must be a numpy array, got list"):
            GemmRequest(req_id=0, arrival_s=0.0, shape=shape, **operands)

    def test_mix_classes_validate(self):
        with pytest.raises(PlanError):
            ShapeClass("bad", GemmShape(8, 8, 8), weight=0.0)
        with pytest.raises(PlanError):
            ShapeClass("bad", GemmShape(8, 8, 8), slo_s=-1.0)
        with pytest.raises(PlanError):
            ShapeClass("bad", GemmShape(8, 8, 8), n_b_variants=0)
