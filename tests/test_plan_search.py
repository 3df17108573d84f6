"""Adaptive plan search: bounds, pruning identity, transfer, plan DB."""

import json

import pytest

from repro.core.autotune import autotune, k_plan_candidates, m_plan_candidates
from repro.core.plan_search import (
    PlanDB,
    PlanRecord,
    ShapeClass,
    default_plan_db,
    plan_bound,
)
from repro.core.shapes import GemmShape
from repro.errors import PlanError
from repro.obs import collecting

# shapes spanning every irregular type plus the degenerate edges
SHAPES = [
    (2048, 32, 2048),
    (65536, 32, 32),     # type 1: tall-skinny x small
    (32, 32, 65536),     # type 2: skinny-tall x tall-skinny
    (1024, 1, 4096),     # N = 1 edge
    (512, 96, 1),        # K = 1 edge
    (4096, 64, 512),
]


def _grid(shape, cluster):
    return [
        ("m", p) for p in m_plan_candidates(shape, cluster)
    ] + [
        ("k", p) for p in k_plan_candidates(shape, cluster)
    ]


class TestBound:
    def test_bound_never_exceeds_score(self, cluster, registry):
        """The lower bound must lower-bound the analytic model — always."""
        from repro.core.autotune import _score

        for m, n, k in SHAPES:
            shape = GemmShape(m, n, k)
            for strategy, plan in _grid(shape, cluster):
                bound = plan_bound(shape, cluster, strategy, plan)
                score = _score(shape, cluster, strategy, plan, registry)
                assert bound <= score.seconds, (
                    f"{shape} {strategy} {plan}: bound {bound} > "
                    f"score {score.seconds}"
                )

    def test_bound_rejects_unknown_strategy(self, cluster):
        with pytest.raises(PlanError):
            plan_bound(GemmShape(64, 32, 64), cluster, "tgemm", None)


class TestPrunedIdentity:
    @pytest.mark.parametrize("m,n,k", SHAPES)
    def test_best_plan_bit_identical(self, cluster, registry, m, n, k):
        shape = GemmShape(m, n, k)
        pruned = autotune(
            shape, cluster, registry, jobs=1, mode="pruned", plan_db=False
        )
        full = autotune(
            shape, cluster, registry, jobs=1, mode="exhaustive",
            plan_db=False,
        )
        assert pruned.best == full.best
        assert pruned.rule == full.rule
        assert pruned.n_candidates == full.n_candidates

    def test_pruning_actually_prunes(self, cluster, registry):
        result = autotune(
            GemmShape(2048, 32, 2048), cluster, registry, jobs=1,
            plan_db=False,
        )
        stats = result.stats
        assert stats.scored <= stats.generated // 2
        assert stats.pruned == stats.generated - stats.scored
        assert stats.bound_evals == stats.generated

    def test_counters(self, cluster, registry):
        with collecting() as reg:
            autotune(
                GemmShape(2048, 32, 2048), cluster, registry, jobs=1,
                plan_db=False,
            )
        snap = reg.snapshot()
        assert snap["tuner/bound_evals"]["value"] > 0
        assert snap["tuner/pruned"]["value"] > 0
        assert snap["tuner/searches"]["value"] == 1

    def test_unknown_mode_rejected(self, cluster):
        with pytest.raises(PlanError):
            autotune(GemmShape(64, 32, 64), cluster, mode="greedy")


class TestStackHint:
    def test_stack_hint_equals_stacked_shape(self, cluster, registry):
        """Hinted tuning is exactly tuning the stacked shape."""
        hinted = autotune(
            GemmShape(64, 32, 512), cluster, registry, jobs=1,
            plan_db=False, stack_hint=512,
        )
        stacked = autotune(
            GemmShape(512, 32, 512), cluster, registry, jobs=1,
            plan_db=False,
        )
        assert hinted.best == stacked.best
        assert hinted.shape == stacked.shape

    def test_stack_hint_validated(self, cluster):
        with pytest.raises(PlanError):
            autotune(GemmShape(64, 32, 512), cluster, stack_hint=0)


class TestShapeClass:
    def test_exact_class_distance_zero(self, cluster):
        a = ShapeClass.of(GemmShape(2048, 32, 2048), cluster)
        b = ShapeClass.of(GemmShape(2304, 32, 3000), cluster)
        assert a.distance(a) == 0.0
        assert a.distance(b) == b.distance(a) < 4.0

    def test_domain_mismatch_is_infinite(self, cluster):
        m_like = ShapeClass.of(GemmShape(65536, 32, 32), cluster)
        k_like = ShapeClass.of(GemmShape(32, 32, 65536), cluster)
        assert m_like.distance(k_like) == float("inf")

    def test_different_n_penalized(self, cluster):
        a = ShapeClass.of(GemmShape(2048, 32, 2048), cluster)
        b = ShapeClass.of(GemmShape(2048, 48, 2048), cluster)
        assert a.distance(b) >= 2.0

    def test_key_roundtrips_fields(self, cluster):
        sig = ShapeClass.of(GemmShape(2048, 32, 2048), cluster)
        assert sig.key().startswith("m/f32/n32/")


class TestPlanDB:
    def _record(self, cluster, shape=GemmShape(2048, 32, 2048)):
        result = autotune(shape, cluster, jobs=1, plan_db=False)
        import dataclasses

        return ShapeClass.of(shape, cluster), PlanRecord(
            strategy=result.best.strategy,
            plan_fields=dataclasses.asdict(result.best.plan),
            shape=(shape.m, shape.n, shape.k),
            seconds=result.best.seconds,
            validated=result.best.validated,
            scored=result.stats.scored,
        )

    def test_roundtrip_through_disk(self, cluster, tmp_path):
        sig, rec = self._record(cluster)
        db = PlanDB(tmp_path)
        db.put(sig, rec)
        reloaded = PlanDB(tmp_path).get(sig)
        assert reloaded == rec
        assert reloaded.plan == rec.plan

    def test_memory_only(self, cluster):
        sig, rec = self._record(cluster)
        db = PlanDB(None)
        db.put(sig, rec)
        assert db.get(sig) == rec
        assert db.path is None

    def test_nearest_prefers_exact(self, cluster, tmp_path):
        sig, rec = self._record(cluster)
        far_sig, far_rec = self._record(cluster, GemmShape(4096, 32, 512))
        db = PlanDB(tmp_path)
        db.put(sig, rec)
        db.put(far_sig, far_rec)
        found = db.nearest(sig)
        assert found is not None
        nsig, nrec, distance = found
        assert nsig == sig and distance == 0.0

    def test_missing_file_loads_empty(self, tmp_path):
        db = PlanDB(tmp_path)
        assert len(db) == 0
        assert not db.path.exists()

    def test_class_distinct_per_core_count(self, cluster):
        shape = GemmShape(64, 32, 64)
        k8 = ShapeClass.of(shape, cluster)
        k4 = ShapeClass.of(shape, cluster.with_cores(4))
        assert k8 != k4 and k8.key() != k4.key()

    def test_reloaded_plan_drives_lowering(self, cluster, registry, tmp_path):
        from repro.core.parallel_k import build_parallel_k
        from repro.core.parallel_m import build_parallel_m
        from repro.executor.timed import run_timed

        shape = GemmShape(2048, 32, 2048)
        sig, rec = self._record(cluster, shape)
        PlanDB(tmp_path).put(sig, rec)
        reloaded = PlanDB(tmp_path).get(sig)
        build = {"m": build_parallel_m, "k": build_parallel_k}[
            reloaded.strategy
        ]
        ex = build(
            shape, cluster, plan=reloaded.adapted(shape, cluster),
            adjust=False, registry=registry,
        )
        assert run_timed(ex).seconds > 0

    def test_plan_rebuild_validates(self, cluster):
        shape = GemmShape(8192, 32, 256)
        sig, rec = self._record(cluster, shape)
        rec.plan.validate(cluster)  # capacity-legal after rebuild
        rec.adapted(shape, cluster).validate(cluster)

    def test_json_roundtrip(self, cluster):
        sig, rec = self._record(cluster, GemmShape(8192, 32, 256))
        restored = PlanRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert restored.strategy == rec.strategy
        assert restored.plan == rec.plan
        assert restored.shape == rec.shape
        assert restored.seconds == pytest.approx(rec.seconds)

    def test_corrupt_strategy_rejected(self):
        # "tgemm" is a known plan format but not a searchable strategy
        from repro.core.blocking import TgemmPlan
        from repro.kernels.serialize import plan_to_dict

        blob = {
            "plan": plan_to_dict("tgemm", TgemmPlan()),
            "shape": [1, 2, 3], "seconds": 1.0, "validated": True,
        }
        with pytest.raises(PlanError, match="no search domain"):
            PlanRecord.from_dict(blob)

    def test_corrupt_file_quarantined(self, cluster, tmp_path):
        db = PlanDB(tmp_path)
        db.path.parent.mkdir(parents=True, exist_ok=True)
        db.path.write_text("{ not json")
        with collecting() as reg:
            assert len(db) == 0
        assert not db.path.exists()
        assert db.path.with_name(db.path.name + ".bad").exists()
        assert reg.snapshot()["tuner/plandb/quarantined"]["value"] == 1

    def test_bad_entry_quarantined(self, cluster, tmp_path):
        sig, rec = self._record(cluster)
        db = PlanDB(tmp_path)
        db.put(sig, rec)
        blob = json.loads(db.path.read_text())
        blob[sig.key()]["record"]["plan"]["strategy"] = "nonsense"
        db.path.write_text(json.dumps(blob))
        fresh = PlanDB(tmp_path)
        assert len(fresh) == 0
        assert db.path.with_name(db.path.name + ".bad").exists()

    def test_lru_eviction_over_cap(self, cluster, tmp_path):
        sig_a, rec = self._record(cluster)
        sig_b = ShapeClass.of(GemmShape(4096, 32, 512), cluster)
        sig_c = ShapeClass.of(GemmShape(1024, 16, 1024), cluster)
        db = PlanDB(tmp_path, max_entries=2)
        with collecting() as reg:
            db.put(sig_a, rec)
            db.put(sig_b, rec)
            db.get(sig_a)            # refresh A: B becomes the LRU
            db.put(sig_c, rec)
        assert len(db) == 2
        assert db.get(sig_b) is None
        assert db.get(sig_a) is not None
        assert db.get(sig_c) is not None
        assert reg.snapshot()["tuner/plandb/evicted"]["value"] == 1
        # recency (and the eviction) survive the disk round-trip
        fresh = PlanDB(tmp_path, max_entries=2)
        assert len(fresh) == 2
        assert fresh.get(sig_b) is None

    def test_cap_must_be_positive(self, tmp_path):
        with pytest.raises(PlanError):
            PlanDB(tmp_path, max_entries=0)

    def test_generator_bump_invalidates_stale_entries(
        self, cluster, tmp_path
    ):
        sig, rec = self._record(cluster)
        other = ShapeClass.of(GemmShape(4096, 32, 512), cluster)
        db = PlanDB(tmp_path)
        db.put(sig, rec)
        db.put(other, rec)
        blob = json.loads(db.path.read_text())
        blob[sig.key()]["gen"] = 999   # tuned under another generator
        db.path.write_text(json.dumps(blob))
        with collecting() as reg:
            fresh = PlanDB(tmp_path)
            # only the stale entry is dropped; the file is not quarantined
            assert len(fresh) == 1
        assert fresh.get(sig) is None
        assert fresh.get(other) is not None
        assert reg.snapshot()["tuner/plandb/invalidated"]["value"] == 1
        assert not db.path.with_name(db.path.name + ".bad").exists()

    def test_default_db_honors_cache_env(self, monkeypatch, tmp_path):
        import repro.core.plan_search as ps

        monkeypatch.setattr(ps, "_default_db", None)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        assert default_plan_db().root == tmp_path / "plans"
        monkeypatch.setattr(ps, "_default_db", None)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "off")
        assert default_plan_db().root is None


class TestTransfer:
    def test_warm_start_preserves_identity(self, cluster, registry, tmp_path):
        """A transferred warm start reorders the search, never its result."""
        db = PlanDB(tmp_path)
        shape = GemmShape(2048, 32, 2048)
        autotune(shape, cluster, registry, jobs=1, plan_db=db)
        assert len(db) == 1

        near = GemmShape(3072, 32, 2048)
        warm = autotune(near, cluster, registry, jobs=1, plan_db=db)
        cold = autotune(
            near, cluster, registry, jobs=1, plan_db=False
        )
        assert warm.stats.transfer == "warm"
        assert warm.best == cold.best

    def test_short_circuit_requires_explicit_tol(
        self, cluster, registry, tmp_path
    ):
        db = PlanDB(tmp_path)
        shape = GemmShape(2048, 32, 2048)
        autotune(shape, cluster, registry, jobs=1, plan_db=db)

        near = GemmShape(2304, 32, 2048)
        no_tol = autotune(near, cluster, registry, jobs=1, plan_db=db)
        assert no_tol.stats.transfer == "warm"
        assert not no_tol.best.transferred

        with collecting() as reg:
            # a *different* same-class shape: short-circuit, not replay
            tol = autotune(
                GemmShape(2560, 32, 2048), cluster, registry, jobs=1,
                plan_db=db, transfer_tol=0.25,
            )
        assert tol.stats.transfer == "short_circuit"
        assert tol.best.transferred
        assert tol.stats.scored == 0
        snap = reg.snapshot()
        assert snap["tuner/transfer_short_circuits"]["value"] == 1

    def test_exact_shape_replays_prior_answer(
        self, cluster, registry, tmp_path
    ):
        """Repeating a searched shape under explicit tol is a memo hit."""
        db = PlanDB(tmp_path)
        shape = GemmShape(2048, 32, 2048)
        first = autotune(shape, cluster, registry, jobs=1, plan_db=db)
        again = autotune(
            shape, cluster, registry, jobs=1, plan_db=db, transfer_tol=0.25
        )
        assert again.stats.transfer == "replay"
        assert again.stats.bound_evals == 0
        assert again.best.transferred
        assert (again.best.strategy, again.best.plan, again.best.seconds) == (
            first.best.strategy, first.best.plan, first.best.seconds
        )

    def test_replay_requires_explicit_tol(self, cluster, registry, tmp_path):
        db = PlanDB(tmp_path)
        shape = GemmShape(2048, 32, 2048)
        autotune(shape, cluster, registry, jobs=1, plan_db=db)
        again = autotune(shape, cluster, registry, jobs=1, plan_db=db)
        assert again.stats.transfer == "warm"
        assert not again.best.transferred

    def test_short_circuit_not_stored_back(self, cluster, registry, tmp_path):
        db = PlanDB(tmp_path)
        autotune(
            GemmShape(2048, 32, 2048), cluster, registry, jobs=1, plan_db=db
        )
        n_before = len(db)
        autotune(
            GemmShape(2304, 32, 2048), cluster, registry, jobs=1,
            plan_db=db, transfer_tol=0.25,
        )
        assert len(db) == n_before

    def test_no_transfer_flag(self, cluster, registry, tmp_path):
        db = PlanDB(tmp_path)
        autotune(
            GemmShape(2048, 32, 2048), cluster, registry, jobs=1, plan_db=db
        )
        off = autotune(
            GemmShape(3072, 32, 2048), cluster, registry, jobs=1,
            plan_db=db, transfer=False,
        )
        assert off.stats.transfer == "off"

    def test_transfer_miss_on_empty_db(self, cluster, registry, tmp_path):
        with collecting() as reg:
            result = autotune(
                GemmShape(2048, 32, 2048), cluster, registry, jobs=1,
                plan_db=PlanDB(tmp_path),
            )
        assert result.stats.transfer == "miss"
        assert reg.snapshot()["tuner/transfer_misses"]["value"] == 1


class TestServeBatchAware:
    def test_expected_stack_hints_deterministic(self):
        from repro.serve.loadgen import make_requests
        from repro.serve.server import expected_stack_hints

        reqs = make_requests(
            "transformer", rate_rps=4000, n_requests=60, seed=7
        )
        h1 = expected_stack_hints(reqs, 8)
        h2 = expected_stack_hints(list(reqs), 8)
        assert h1 == h2
        assert all(m >= 1 for m in h1.values())

    def test_warm_hinted_and_cold_penalty(self, machine):
        from repro.serve.scheduler import COLD_TUNE_S, Scheduler

        sched = Scheduler(n_clusters=2, policy="fifo", machine=machine)
        report = sched.warm(
            [(GemmShape(128, 64, 256), "f32")],
            stack_hints={(64, 256, "f32"): 512},
        )
        assert report.hinted == 1
        assert report.n_buckets == 1
        assert report.keys == [(64, 256, "f32")]
        # warmed bucket is free; an unknown one charges the constant, once
        assert sched.tune_penalty((64, 256, "f32")) == 0.0
        assert sched.tune_penalty((8, 8, "f32")) == COLD_TUNE_S
        assert sched.tune_penalty((8, 8, "f32")) == 0.0
