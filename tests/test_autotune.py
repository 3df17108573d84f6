"""Model-driven autotuner: candidate feasibility, scoring, validation."""

import pytest

from repro.core.autotune import (
    AutotuneResult,
    _balanced_chunks,
    autotune,
    k_plan_candidates,
    m_plan_candidates,
)
from repro.core.shapes import GemmShape
from repro.errors import PlanError
from repro.obs import collecting


class TestCandidates:
    def test_m_candidates_all_validate(self, cluster):
        shape = GemmShape(65536, 32, 512)
        plans = m_plan_candidates(shape, cluster)
        assert plans
        for plan in plans:
            assert plan.am_bytes() <= cluster.core.am_bytes
            assert plan.sm_bytes() <= cluster.core.sm_bytes
            assert plan.n_a == 32

    def test_k_candidates_all_validate(self, cluster):
        shape = GemmShape(32, 32, 65536)
        plans = k_plan_candidates(shape, cluster)
        assert plans
        for plan in plans:
            assert plan.am_bytes() <= cluster.core.am_bytes
            assert plan.m_a >= 32

    def test_candidates_deduplicated(self, cluster):
        plans = m_plan_candidates(GemmShape(1024, 32, 32), cluster)
        assert len(plans) == len(set(plans))

    def test_large_m_a_excluded_from_k_candidates(self, cluster):
        # M so large the partial C cannot fit half of AM
        assert k_plan_candidates(GemmShape(2**20, 96, 2**20), cluster) == []

    def test_balanced_chunks(self, cluster):
        chunk = _balanced_chunks(100, 40, 8, 4)
        assert chunk % 8 == 0
        assert chunk <= 40

    def test_balanced_chunks_deal_evenly(self):
        import math

        for total, cmax, quantum, p in [(100, 40, 8, 4), (65536, 4096, 8, 8)]:
            chunk = _balanced_chunks(total, cmax, quantum, p)
            n_chunks = math.ceil(total / chunk)
            assert n_chunks % p == 0 or n_chunks < p


class TestAutotune:
    def test_validated_search_never_loses(self, cluster, registry):
        for m, n, k in [(65536, 32, 32), (32, 32, 65536)]:
            result = autotune(GemmShape(m, n, k), cluster, registry)
            assert result.improvement >= 0.999

    def test_result_structure(self, cluster, registry):
        result = autotune(GemmShape(8192, 32, 512), cluster, registry)
        assert isinstance(result, AutotuneResult)
        assert result.n_candidates > 0
        assert result.best.seconds <= result.rule.seconds * 1.001
        assert "m_s=" in result.best.label

    def test_wide_n_rejected(self, cluster, registry):
        with pytest.raises(PlanError):
            autotune(GemmShape(4096, 512, 4096), cluster, registry)

    def test_validation_can_be_disabled(self, cluster, registry):
        result = autotune(
            GemmShape(8192, 32, 512), cluster, registry, validate_top=0
        )
        assert not result.best.validated

    def test_validation_marks_candidates(self, cluster, registry):
        result = autotune(GemmShape(8192, 32, 512), cluster, registry)
        assert result.best.validated
        assert result.rule.validated

    def test_pure_analytic_can_mislead_but_validation_fixes_it(
        self, cluster, registry
    ):
        """The documented pitfall: for 32x32x65536 the analytic model
        prefers a degenerate M-parallel plan the DES refutes."""
        shape = GemmShape(32, 32, 65536)
        unvalidated = autotune(shape, cluster, registry, validate_top=0)
        validated = autotune(shape, cluster, registry)
        # the analytic search claims a bigger win than survives validation
        assert unvalidated.improvement >= validated.improvement - 1e-9
        assert validated.improvement >= 0.999

    def test_huge_plans_skip_validation_gracefully(self, cluster, registry):
        result = autotune(GemmShape(2**20, 8, 8), cluster, registry)
        assert result.n_candidates > 0  # analytic ranking still returned

    def test_wall_times_recorded_as_distributions(self, cluster, registry):
        """Search and DES-validation wall time land in the ambient
        registry as plain distributions, one sample per search."""
        with collecting() as reg:
            autotune(GemmShape(512, 32, 256), cluster, registry)
        snap = reg.snapshot()
        for name in ("tuner/search_wall_s", "tuner/des_validate_wall_s"):
            assert snap[name]["type"] == "distribution"
            assert snap[name]["count"] == 1
            assert snap[name]["total"] >= 0.0
        assert (snap["tuner/des_validate_wall_s"]["total"]
                <= snap["tuner/search_wall_s"]["total"])


class TestExperiment:
    def test_ext_autotune_claims_hold(self):
        from repro.experiments import ext_autotune

        for result in ext_autotune.run():
            for claim in result.claims:
                assert claim.holds, f"{claim.name}: {claim.measured}"
