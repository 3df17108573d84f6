"""Property-style serve invariants across seeds × policies × modes.

Hypothesis-style coverage without the dependency: a seeded parametrized
matrix (3 seeds × all 3 policies × replication off / on first traffic /
adaptive × fault plan on/off) drives randomized request streams through the serve
engine and asserts the invariants every run must satisfy, whatever the
draw:

* **conservation** — offered == completed + shed + failed, every shed
  carries a typed reason, every failure a typed error;
* **latency decomposition** — queue + batch-wait + compute == end-to-end
  latency (within float rounding) for every completed request;
* **batch decomposition** — tune + stage + gemm + lost == finish − start
  for every dispatched batch;
* **cluster monotonicity** — per-cluster batch intervals never overlap
  and never run backwards (the ``busy_until_s`` monotone contract);
* **replica budget** — per-cluster replica residency never exceeds the
  configured budget, and placement accounting matches the batch records;
* **fault attribution** — every fault, quarantine, probe and recovery
  names the cluster that ran the work: a batch executes when it binds,
  so its failed attempts run (and are charged) on clusters it was bound
  or re-routed to, never on a cluster picked for attribution alone;
* **one ledger** — the ``serve/*`` metrics equal the report's own
  counts: request outcomes, re-dispatches and placement counters.

Plus the cold-tune regression: the constant ``COLD_TUNE_S`` penalty
keeps replays bit-identical across runs.
"""

import math
from dataclasses import replace as dc_replace

import pytest

from repro.faults.plan import FaultPlan
from repro.obs import collecting
from repro.serve import DegradePolicy, ServeConfig, make_requests, serve
from repro.serve import placement as placement_mod
from repro.serve.degrade import HealthPolicy
from repro.serve.request import COMPLETED, FAILED, SHED
from repro.serve.scheduler import COLD_TUNE_S

from test_serve import fast_requests

SEEDS = [0, 1, 2]
POLICIES = ["fifo", "least_loaded", "edf"]
#: matrix id -> replicate_b.  "static" keeps its old id for promotion on
#: first traffic: adaptive with ``placement.PROMOTE_AFTER`` patched to 1.
REPLICATE = {"off": "off", "static": "adaptive", "adaptive": "adaptive"}

#: typed shed reasons the admission path may emit
SHED_REASONS = {"queue_full", "class_shed", "burn_shed", "shutdown"}


def _config(monkeypatch, policy, replicate, faulty, seed):
    if replicate == "static":
        monkeypatch.setattr(placement_mod, "PROMOTE_AFTER", 1)
    kw = dict(
        policy=policy,
        queue_cap=8,
        replicate_b=REPLICATE[replicate],
    )
    if faulty:
        kw.update(
            faults=FaultPlan(seed=seed, bitflip_rate=0.3,
                             max_kernel_retries=0),
            max_redispatch=1,
        )
    return ServeConfig(**kw)


def _check_conservation(report, n_offered):
    assert len(report.records) == n_offered
    assert report.completed + report.shed + report.failed == n_offered
    for rec in report.records:
        assert rec.status in (COMPLETED, SHED, FAILED)
        if rec.status == SHED:
            assert rec.shed_reason in SHED_REASONS
            assert rec.error is not None
        if rec.status == FAILED:
            assert rec.error is not None


def _check_latency_decomposition(report):
    for rec in report.records:
        if rec.status != COMPLETED:
            continue
        assert rec.latency_s is not None
        total = rec.queue_s + rec.batch_s + rec.compute_s
        assert math.isclose(
            rec.latency_s, total, rel_tol=1e-9, abs_tol=1e-12
        ), f"req {rec.req_id}: {rec.latency_s} != {total}"
        assert rec.queue_s >= 0
        assert rec.batch_s >= -1e-12
        assert rec.compute_s > 0


def _check_batch_decomposition(report):
    for b in report.batches:
        span = b.tune_s + b.stage_s + b.gemm_s + b.lost_s
        assert math.isclose(
            b.finish_s - b.start_s, span, rel_tol=1e-9, abs_tol=1e-12
        ), f"batch {b.batch_id}: {b.finish_s - b.start_s} != {span}"
        assert b.start_s >= b.close_s - 1e-12


def _check_cluster_monotone(report):
    """Per-cluster intervals are ordered and non-overlapping.

    ``ClusterBackend.charge``/``occupy`` refuse to run backwards, so a
    cluster's dispatched batches — sorted by start — must tile forward in
    time.  Replica staging may insert gaps (it occupies the timeline
    without a batch record) but can never cause an overlap.
    """
    per = {}
    for b in report.batches:
        per.setdefault(b.cluster, []).append(b)
    for cluster, batches in per.items():
        batches.sort(key=lambda b: (b.start_s, b.batch_id))
        prev_finish = 0.0
        for b in batches:
            assert b.start_s >= prev_finish - 1e-12, (
                f"cluster {cluster}: batch {b.batch_id} starts at "
                f"{b.start_s} before previous finish {prev_finish}"
            )
            assert b.finish_s >= b.start_s
            prev_finish = b.finish_s


def _check_replica_budget(report):
    placement = report.placement
    if report.config.replicate_b == "off":
        assert placement is None
        assert not any(b.b_resident for b in report.batches)
        return
    assert placement is not None
    for peak in placement.peak_bytes:
        assert peak <= placement.budget_bytes
    # placement accounting matches the batch records bit for bit
    assert placement.hits == sum(1 for b in report.batches if b.b_resident)
    assert placement.promotions >= placement.replica_sets


def _check_fault_attribution(report):
    """Every fault, quarantine, probe and retry names the executing cluster.

    Each failed attempt records the cluster it ran on.  Without a health
    policy a batch never re-routes, so its failed attempts ran on, and
    their lost time sits in, the batch's own busy interval.  A batch
    binds (and executes) between its close and its start, so every
    quarantine and probe is stamped inside that window on a cluster the
    batch ran an attempt on, and every recovery is the finish of a batch
    that completed on the recovering cluster.
    """
    for b in report.batches:
        assert len(b.fault_clusters) == b.redispatches \
            == len(b.attempt_errors)
        if report.config.degrade is None:
            assert set(b.fault_clusters) <= {b.cluster}, b.batch_id
    if report.degrade is None:
        return
    status = {r.req_id: r.status for r in report.records}
    for e in report.degrade.events:
        if e.kind == "recover":
            assert any(
                b.cluster == e.cluster and b.finish_s == e.at_s
                and all(status[r] == COMPLETED for r in b.request_ids)
                for b in report.batches
            ), e.describe()
            continue
        ran = (
            (lambda b: e.cluster in b.fault_clusters) if e.kind == "quarantine"
            else (lambda b: e.cluster in b.fault_clusters
                  or e.cluster == b.cluster)
        )
        assert any(
            ran(b) and b.close_s <= e.at_s <= b.start_s
            for b in report.batches
        ), e.describe()


def _check_ledger(report, reg):
    """The registry's serve counts are the report's, by construction."""
    def count(name):
        return reg.counter(name).value if name in reg else 0

    offered = count("serve/requests/offered")
    assert offered == report.n_requests
    assert count("serve/requests/completed") == report.completed
    assert count("serve/requests/shed") == report.shed
    assert count("serve/requests/failed") == report.failed
    assert offered == report.completed + report.failed + report.shed
    admission = sum(r.shed_reason in ("queue_full", "class_shed", "burn_shed")
                    for r in report.records)
    assert count("serve/requests/admitted") == offered - admission
    assert count("serve/redispatches") == report.redispatches
    placement = report.placement
    for name in ("promotions", "demotions", "hits", "restages",
                 "staged_bytes"):
        want = getattr(placement, name) if placement is not None else 0
        assert count(f"serve/placement/{name}") == want, name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("replicate", REPLICATE)
@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
def test_serve_invariants(seed, policy, replicate, faulty, monkeypatch):
    requests = fast_requests(n=24, rate=150_000, seed=seed)
    with collecting() as reg:
        report = serve(
            requests, _config(monkeypatch, policy, replicate, faulty, seed)
        )
    _check_conservation(report, len(requests))
    _check_latency_decomposition(report)
    _check_batch_decomposition(report)
    _check_cluster_monotone(report)
    _check_replica_budget(report)
    _check_fault_attribution(report)
    _check_ledger(report, reg)


@pytest.mark.parametrize("policy", POLICIES)
def test_faults_name_the_executing_cluster(policy):
    """One sick cluster faults every attempt; health re-routes off it.

    Every fault and quarantine must name the sick cluster, and no batch
    may complete there: a completed batch's interval is on the cluster
    whose attempt succeeded.
    """
    requests = fast_requests(n=48, rate=100_000, seed=0)
    report = serve(requests, ServeConfig(
        policy=policy, queue_cap=64,
        degrade=DegradePolicy(health=HealthPolicy(fault_threshold=1,
                                                  cooldown_s=2e-4)),
        faults=FaultPlan(seed=1, bitflip_rate=1.0, max_kernel_retries=0),
        cluster_fault_scale=(1.0, 0.0, 0.0, 0.0), max_redispatch=1,
    ))
    _check_conservation(report, len(requests))
    _check_batch_decomposition(report)
    _check_cluster_monotone(report)
    _check_fault_attribution(report)
    faulted = {c for b in report.batches for c in b.fault_clusters}
    assert faulted == {0}
    # the sick cluster is quarantined, probed, and never recovers: every
    # probe it is bound to faults
    assert report.degrade.quarantines > 0 and report.degrade.probes > 0
    assert report.degrade.recoveries == 0
    assert {e.cluster for e in report.degrade.events
            if e.kind == "quarantine"} == {0}
    status = {r.req_id: r.status for r in report.records}
    for b in report.batches:
        if all(status[r] == COMPLETED for r in b.request_ids):
            assert b.cluster != 0, b.batch_id


@pytest.mark.parametrize("policy", POLICIES)
def test_invariants_on_overload_mix(policy):
    """One richer draw per policy: the transformer overload mix."""
    requests = make_requests(
        "overload", rate_rps=240_000, n_requests=40, seed=3
    )
    report = serve(requests, ServeConfig(
        policy=policy, queue_cap=16, replicate_b="adaptive",
    ))
    _check_conservation(report, len(requests))
    _check_latency_decomposition(report)
    _check_batch_decomposition(report)
    _check_cluster_monotone(report)
    _check_replica_budget(report)


def test_sheds_happen_and_are_typed():
    """The conservation clause about sheds must not be vacuous."""
    requests = fast_requests(n=24, rate=500_000, seed=0)
    report = serve(requests, ServeConfig(
        policy="least_loaded", queue_cap=2, replicate_b="adaptive",
    ))
    assert report.shed > 0
    for rec in report.records:
        if rec.status == SHED:
            assert rec.shed_reason == "queue_full"
            assert rec.error is not None


def test_budget_pressure_demotes_lru_and_stays_under_budget(monkeypatch):
    """A budget below two replicas forces LRU demotion, never overflow."""
    # FAST_MIX B sizes: tiny 16x16 f32 = 1 KiB, wide 64x48 f32 = 12 KiB
    monkeypatch.setattr(placement_mod, "REPLICA_BUDGET_BYTES", 13 << 10)
    monkeypatch.setattr(placement_mod, "MAX_REPLICAS", 4)
    monkeypatch.setattr(placement_mod, "PROMOTE_AFTER", 1)
    requests = fast_requests(n=48, rate=150_000, seed=1)
    report = serve(requests, ServeConfig(
        policy="least_loaded", queue_cap=64, replicate_b="adaptive",
    ))
    placement = report.placement
    assert placement.demotions > 0
    for peak in placement.peak_bytes:
        assert peak <= 13 << 10
    _check_cluster_monotone(report)


def test_oversized_b_is_never_promoted(monkeypatch):
    """A digest whose B exceeds the per-cluster budget stays pinned."""
    monkeypatch.setattr(placement_mod, "REPLICA_BUDGET_BYTES", 2 << 10)
    monkeypatch.setattr(placement_mod, "PROMOTE_AFTER", 1)
    requests = fast_requests(n=24, rate=150_000, seed=0)
    report = serve(requests, ServeConfig(
        policy="least_loaded", replicate_b="adaptive",
    ))
    placement = report.placement
    # only the 1 KiB tiny bucket fits the 2 KiB budget
    for e in placement.events:
        assert "x16x16/" in e.label
    for peak in placement.peak_bytes:
        assert peak <= 2 << 10


class TestColdTuneReplayContract:
    """The constant ``COLD_TUNE_S`` keeps replays bit-identical.

    The penalty is modeled, never a measured tune wall, so a run must
    replay bit for bit across runs and machines, cold tunes included.
    """

    def test_explicit_cold_tune_bit_identical_across_runs(self):
        config = ServeConfig(policy="least_loaded", warmup=False)
        first = serve(fast_requests(n=24, seed=2), config)
        second = serve(fast_requests(n=24, seed=2), config)
        assert first.records == second.records
        assert first.batches == second.batches
        # the cold penalty actually landed (warmup was off)
        assert any(b.tune_s == COLD_TUNE_S for b in first.batches)

    def test_explicit_cold_tune_bit_identical_with_replication(self):
        config = ServeConfig(
            policy="edf", warmup=False, replicate_b="adaptive",
        )
        first = serve(fast_requests(n=24, seed=2), config)
        second = serve(fast_requests(n=24, seed=2), config)
        assert first.records == second.records
        assert first.batches == second.batches
