"""Adaptive plan search: bounds, pruning identity, a stateless search."""

import pytest

from repro.core.autotune import autotune, k_plan_candidates, m_plan_candidates
from repro.core.plan_search import plan_bound
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
        pruned = autotune(shape, cluster, registry, mode="pruned")
        full = autotune(shape, cluster, registry, mode="exhaustive")
        assert pruned.best == full.best
        assert pruned.rule == full.rule
        assert pruned.n_candidates == full.n_candidates

    def test_pruning_actually_prunes(self, cluster, registry):
        result = autotune(GemmShape(2048, 32, 2048), cluster, registry)
        stats = result.stats
        assert stats.scored <= stats.generated // 2
        assert stats.pruned == stats.generated - stats.scored
        assert stats.bound_evals == stats.generated

    def test_counters(self, cluster, registry):
        with collecting() as reg:
            autotune(GemmShape(2048, 32, 2048), cluster, registry)
        snap = reg.snapshot()
        assert snap["tuner/bound_evals"]["value"] > 0
        assert snap["tuner/pruned"]["value"] > 0
        assert snap["tuner/searches"]["value"] == 1

    def test_unknown_mode_rejected(self, cluster):
        with pytest.raises(PlanError):
            autotune(GemmShape(64, 32, 64), cluster, mode="greedy")


class TestStateless:
    def test_back_to_back_searches_equal_and_store_nothing(
        self, cluster, monkeypatch, tmp_path
    ):
        """The search depends only on its arguments: a repeat returns the
        same answer, and neither search writes a file."""
        import repro.kernels.registry as kernel_registry

        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(kernel_registry, "_registries", {})
        shape = GemmShape(2048, 32, 2048)
        first = autotune(shape, cluster)
        again = autotune(shape, cluster)
        assert first.best == again.best
        assert first.rule == again.rule
        assert first.stats.scored == again.stats.scored
        assert first.stats.trajectory == again.stats.trajectory
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("knob,value", [
        ("plan_db", False), ("transfer", False), ("transfer_tol", 0.25),
        ("stack_hint", 512), ("validate_op_limit", 60_000), ("jobs", 2),
    ])
    def test_removed_knobs_rejected(self, cluster, knob, value):
        with pytest.raises(TypeError, match=knob):
            autotune(GemmShape(64, 32, 64), cluster, **{knob: value})

    def test_plan_db_not_exported(self):
        import repro

        for name in ("PlanDB", "default_plan_db"):
            assert name not in repro.__all__
            assert not hasattr(repro, name)

    def test_negative_validate_top_rejected(self, cluster):
        # a negative count used to switch DES validation off silently
        with pytest.raises(PlanError, match="validate_top"):
            autotune(GemmShape(2048, 32, 2048), cluster, validate_top=-1)


class TestServeBatchAware:
    def test_warm_hinted_and_cold_penalty(self, machine):
        from repro.serve.scheduler import COLD_TUNE_S, Scheduler

        sched = Scheduler(n_clusters=2, policy="fifo", machine=machine)
        report = sched.warm([(GemmShape(128, 64, 256), "f32")])
        assert report.n_buckets == 1
        assert report.keys == [(64, 256, "f32")]
        # warmed bucket is free; an unknown one charges the constant, once
        assert sched.tune_penalty((64, 256, "f32")) == 0.0
        assert sched.tune_penalty((8, 8, "f32")) == COLD_TUNE_S
        assert sched.tune_penalty((8, 8, "f32")) == 0.0
