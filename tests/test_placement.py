"""Replicated-B placement: manager semantics and scheduler edge cases.

The ISSUE's edge-case checklist, plus the manager's own contracts:

* all-clusters-quarantined fail-open still honors replica routing;
* a replica whose holder is quarantined routes to a *healthy* holder,
  or — when every holder is sick — falls back to policy binding and
  honestly pays a re-stage;
* single-bucket streams with fewer batches than clusters neither crash
  nor over-replicate;
* promotion targets the least-loaded clusters, demotion is LRU, a fully
  evicted digest must re-earn promotion (thrash guard), and oversized
  B matrices are never promoted.
"""

from repro.serve import PlacementManager, Scheduler, ServeConfig, serve
from repro.serve.batcher import bucket_b_bytes
from repro.serve.degrade import HealthPolicy
from repro.serve.placement import REPLICA_BUDGET_BYTES
from repro.serve.request import COMPLETED

from test_serve import fast_requests

#: a bucket key shaped like the batcher's: (N, K, dtype, digest)
KEY_A = (64, 32, "f32", "digest-a")    # B = 8 KiB
KEY_B = (64, 64, "f32", "digest-b")    # B = 16 KiB


def manager(n_clusters=4, budget=1 << 20, max_replicas=2,
            promote_after=1, cpu_bw=4e10):
    return PlacementManager(
        n_clusters=n_clusters, budget_bytes=budget,
        max_replicas=max_replicas, promote_after=promote_after,
        cpu_bw=cpu_bw,
    )


def scheduler(machine, n_clusters=4, health=None, placement=None):
    return Scheduler(
        n_clusters=n_clusters, policy="least_loaded",
        machine=machine, health=health, placement=placement,
    )


class TestManagerSemantics:
    def test_bucket_b_bytes(self):
        assert bucket_b_bytes(KEY_A) == 64 * 32 * 4
        assert bucket_b_bytes((8, 8, "f64", "x")) == 8 * 8 * 8

    def test_promote_after_one_promotes_on_first_batch(self, machine):
        pm = manager(promote_after=1)
        sched = scheduler(machine, placement=pm)
        staged = pm.on_close(KEY_A, sched, now=0.0)
        assert len(staged) == 2              # max_replicas
        assert pm.sets["digest-a"].replicated
        assert pm.report().promotions == 1

    def test_adaptive_waits_for_traffic(self, machine):
        pm = manager(promote_after=3)
        sched = scheduler(machine, placement=pm)
        assert pm.on_close(KEY_A, sched, now=0.0) == []
        assert pm.on_close(KEY_A, sched, now=0.1) == []
        staged = pm.on_close(KEY_A, sched, now=0.2)
        assert len(staged) == 2
        # staging charges land on the cluster timelines
        for cluster, start, end in staged:
            assert end > start
            assert sched.backends[cluster].busy_until_s == end

    def test_promotion_targets_least_loaded(self, machine):
        pm = manager(max_replicas=2)
        sched = scheduler(machine, placement=pm)
        sched.backends[0].charge(0.0, 5.0)   # busiest
        sched.backends[1].charge(0.0, 3.0)
        staged = pm.on_close(KEY_A, sched, now=0.0)
        assert sorted(c for c, _s, _e in staged) == [2, 3]

    def test_staging_never_counts_as_a_batch(self, machine):
        pm = manager()
        sched = scheduler(machine, placement=pm)
        pm.on_close(KEY_A, sched, now=0.0)
        assert all(b.batches == 0 for b in sched.backends)
        assert any(b.busy_s > 0 for b in sched.backends)

    def test_lru_demotion_under_budget(self, machine):
        # budget fits one 16 KiB replica per cluster, not A + B together
        pm = manager(budget=16 << 10, max_replicas=4)
        sched = scheduler(machine, placement=pm)
        pm.on_close(KEY_A, sched, now=0.0)
        pm.use_replica(KEY_A, 0, now=0.5)    # refresh A's LRU stamp
        pm.on_close(KEY_B, sched, now=1.0)   # needs 16 KiB: evicts A
        assert not pm.sets["digest-a"].clusters
        assert len(pm.sets["digest-b"].clusters) == 4
        assert pm.report().demotions == 4
        assert max(pm.peak_bytes) <= 16 << 10

    def test_thrash_guard_after_full_eviction(self, machine):
        pm = manager(budget=16 << 10, max_replicas=4, promote_after=2)
        sched = scheduler(machine, placement=pm)
        for now in (0.0, 0.1):
            pm.on_close(KEY_A, sched, now=now)
        assert pm.sets["digest-a"].replicated
        for now in (1.0, 1.1):
            pm.on_close(KEY_B, sched, now=now)   # evicts A everywhere
        st = pm.sets["digest-a"]
        assert not st.replicated
        # one fresh batch is not enough to re-promote (promote_after=2)
        assert pm.on_close(KEY_A, sched, now=2.0) == []
        assert pm.on_close(KEY_A, sched, now=3.0) != []

    def test_oversized_b_never_promoted(self, machine):
        pm = manager(budget=4 << 10)
        sched = scheduler(machine, placement=pm)
        assert pm.on_close(KEY_B, sched, now=0.0) == []   # 16 KiB > 4 KiB
        assert pm.report().promotions == 0

    def test_use_replica_hit_miss_and_restage(self, machine):
        pm = manager(max_replicas=2)
        sched = scheduler(machine, placement=pm)
        assert not pm.use_replica(KEY_A, 0, now=0.0)      # unknown digest
        staged = pm.on_close(KEY_A, sched, now=0.0)
        holders = [c for c, _s, _e in staged]
        off = next(i for i in range(4) if i not in holders)
        assert pm.use_replica(KEY_A, holders[0], now=1.0)
        assert pm.restages == 0
        assert not pm.use_replica(KEY_A, off, now=2.0)    # off-holder
        assert pm.restages == 1
        assert pm.hits == 1

    def test_report_roundtrip(self, machine):
        pm = manager()
        sched = scheduler(machine, placement=pm)
        pm.on_close(KEY_A, sched, now=0.0)
        rep = pm.report()
        assert rep.replica_sets == 1
        assert rep.promotions == 1
        assert [e.kind for e in rep.events].count("promote") == 1
        assert "replica set" in rep.describe()


class TestQuarantineInteraction:
    def _quarantine(self, sched, idx, now=0.0):
        sched.note_fault(idx, now)
        assert sched.health[idx].state == "quarantined"

    def test_all_quarantined_fail_open_honors_replicas(self, machine):
        pm = manager(max_replicas=1)
        sched = scheduler(
            machine, health=HealthPolicy(fault_threshold=1, cooldown_s=1.0,
                                         max_cooldown_s=4.0),
            placement=pm,
        )
        (holder, _s, _e), = pm.on_close(KEY_A, sched, now=0.0)
        for i in range(4):
            self._quarantine(sched, i)
        # fail-open: the full pool is routable, so the replica holder
        # still wins the binding — locality survives the sick pool
        backend = sched.pick_backend(0.1, key=KEY_A)
        assert backend.idx == holder

    def test_quarantined_holder_routes_to_healthy_holder(self, machine):
        pm = manager(max_replicas=2)
        sched = scheduler(
            machine, health=HealthPolicy(fault_threshold=1, cooldown_s=1.0,
                                         max_cooldown_s=4.0),
            placement=pm,
        )
        staged = pm.on_close(KEY_A, sched, now=0.0)
        holders = [c for c, _s, _e in staged]
        self._quarantine(sched, holders[0])
        backend = sched.pick_backend(0.1, key=KEY_A)
        assert backend.idx == holders[1]

    def test_all_holders_quarantined_falls_back_and_restages(self, machine):
        pm = manager(max_replicas=2)
        sched = scheduler(
            machine, health=HealthPolicy(fault_threshold=1, cooldown_s=1.0,
                                         max_cooldown_s=4.0),
            placement=pm,
        )
        staged = pm.on_close(KEY_A, sched, now=0.0)
        holders = [c for c, _s, _e in staged]
        for idx in holders:
            self._quarantine(sched, idx)
        backend = sched.pick_backend(0.1, key=KEY_A)
        assert backend.idx not in holders     # policy fallback binding
        # ... and the engine-side accounting calls it a re-stage
        assert not pm.use_replica(KEY_A, backend.idx, now=0.1)
        assert pm.restages == 1

    def test_edf_pull_prefers_idle_holder(self, machine):
        pm = manager(max_replicas=2)
        sched = Scheduler(
            n_clusters=4, policy="edf", machine=machine, placement=pm,
        )
        staged = pm.on_close(KEY_A, sched, now=0.0)
        holders = sorted(c for c, _s, _e in staged)
        now = max(e for _c, _s, e in staged)
        backend = sched.idle_backend(now, key=KEY_A)
        assert backend.idx in holders
        # without a key the pull keeps its lowest-index-idle rule
        assert sched.idle_backend(now).idx == 0


class TestSingleBucketStreams:
    def test_fewer_batches_than_clusters(self):
        """K < n_clusters: a short single-bucket stream stays correct."""
        # one shape class, one B variant -> exactly one bucket; three
        # single-request batches on a four-cluster pool
        requests = [
            r for r in fast_requests(n=12, rate=30_000, seed=5)
            if r.klass == "tiny"
        ][:3]
        report = serve(requests, ServeConfig(
            policy="least_loaded", max_batch=1, replicate_b="adaptive",
        ))
        assert report.completed == len(report.records) == 3
        assert all(r.status == COMPLETED for r in report.records)
        placement = report.placement
        # the digest got hot mid-stream; replicas never exceed the pool
        assert placement.replica_sets <= 1
        for st_peak in placement.peak_bytes:
            assert st_peak <= REPLICA_BUDGET_BYTES

    def test_single_batch_stream_never_promotes_adaptively(self):
        requests = [fast_requests(n=4, rate=30_000, seed=6)[0]]
        report = serve(requests, ServeConfig(
            policy="fifo", replicate_b="adaptive",
        ))
        assert report.completed == 1
        assert report.placement.promotions == 0
        assert report.placement.hits == 0
