"""Model-driven auto-tuning (extension; cf. AutoTSMM in the related work).

The paper's dynamic adjusting (Section IV-C) is *rule-based*: fixed
thresholds pick the strategy, and block sizes are derived by shrinking the
CMR-optimal initial blocks.  The related work the paper cites (AutoTSMM,
Li et al. 2021) instead *searches* a candidate space with a cost model.
This module implements that alternative on top of this reproduction's
analytic executor:

1. enumerate candidate plans for both strategies — a grid over the
   kernel rows ``m_s`` and the K block ``k_a`` with the remaining blocks
   derived to fill the scratchpads and deal chunks evenly;
2. score every candidate with the closed-form timing model (the same one
   validated against the DES executor);
3. pick the fastest, and report it against the rule-based decision;
4. optionally re-score the top analytic candidates (plus the rule-based
   plan) with the event-driven simulator before the final ranking —
   screening with the cheap model and validating with the expensive one.
   This step exists because of a measured pitfall: the closed-form model
   is optimistic for degenerate plans (e.g. M-parallel with m_a = m_s = 6
   on a type-2 shape looks 16% faster analytically but loses under DES),
   and a pure analytic search would pick them.

The ``ext_autotune`` experiment quantifies the comparison: the rules are
near-optimal across the paper's shape families (the search mostly
confirms them, within a few percent), and the search never does worse
once DES validation is on.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

from ..errors import PlanError
from ..executor.analytic import analytic_parallel_k, analytic_parallel_m
from ..executor.timed import run_timed
from ..hw.config import ClusterConfig
from ..obs.registry import ProfileScope, current as _obs_current
from ..kernels.registry import KernelRegistry, registry_for
from ..parallel import POOL_MIN_UNITS, parallel_map, resolve_jobs
from .blocking import FP32, KPlan, MPlan, MIN_GOOD_M_S, N_MAX
from .plan_search import SearchStats, plan_bound
from .shapes import GemmShape
from .tuner import tune

#: m_s candidates: the paper keeps 6 <= m_s <= 14.
M_S_GRID = (6, 8, 10, 12, 14)
#: k_a seeds; each is clamped to K, SM capacity and AM capacity.
K_A_GRID = (32, 64, 128, 256, 512, 864, 1024, 2048)
#: DES validation runs only when every finalist (and the rule plan) lowers
#: to at most this many ops (:func:`_estimate_ops`).
VALIDATE_OP_LIMIT = 60_000


@dataclass(frozen=True)
class Candidate:
    strategy: str                 # "m" | "k"
    plan: MPlan | KPlan
    seconds: float
    validated: bool = False       # True when the score came from the DES

    @property
    def label(self) -> str:
        p = self.plan
        return f"{self.strategy}: m_s={p.m_s} k_a={p.k_a} m_a={p.m_a} n_a={p.n_a}"


@dataclass
class AutotuneResult:
    shape: GemmShape
    best: Candidate
    rule: Candidate
    n_candidates: int
    stats: SearchStats | None = None

    @property
    def improvement(self) -> float:
        """Rule time / searched time (1.0 = rules were already optimal)."""
        return self.rule.seconds / self.best.seconds


def _balanced_chunks(total: int, chunk_max: int, quantum: int, n_cores: int) -> int:
    """Largest chunk <= chunk_max (multiple of quantum) dealing evenly."""
    chunk_max = max(quantum, chunk_max // quantum * quantum)
    n_chunks = math.ceil(total / chunk_max)
    n_chunks = math.ceil(n_chunks / n_cores) * n_cores
    chunk = min(chunk_max, math.ceil(total / n_chunks / quantum) * quantum)
    return max(chunk, quantum)


def m_plan_candidates(shape: GemmShape, cluster: ClusterConfig) -> list[MPlan]:
    core = cluster.core
    n_a = min(N_MAX, shape.n)
    plans: set[MPlan] = set()
    for m_s in M_S_GRID:
        if m_s > shape.m and shape.m >= MIN_GOOD_M_S:
            continue
        m_s_eff = min(m_s, shape.m)
        for k_a_seed in K_A_GRID:
            k_a = min(k_a_seed, shape.k, core.sm_bytes // (2 * m_s_eff * FP32))
            if k_a < 1:
                continue
            am_left = core.am_bytes - 2 * k_a * n_a * FP32
            m_a_max = am_left // (n_a * FP32)
            if m_a_max < m_s_eff:
                continue
            m_a = _balanced_chunks(shape.m, m_a_max, m_s_eff, cluster.n_cores)
            k_g_cap = cluster.gsm_bytes // (2 * n_a * FP32)
            k_g = max(k_a, min(k_g_cap, shape.k))
            try:
                plans.add(
                    MPlan(
                        k_g=k_g, n_g=n_a, m_a=m_a, n_a=n_a, k_a=k_a, m_s=m_s_eff
                    ).validate(cluster)
                )
            except PlanError:
                continue
    return sorted(plans, key=lambda p: (p.m_s, p.k_a))


def k_plan_candidates(shape: GemmShape, cluster: ClusterConfig) -> list[KPlan]:
    core = cluster.core
    n_a = min(N_MAX, shape.n)
    plans: set[KPlan] = set()
    for m_s in M_S_GRID:
        m_s_eff = min(m_s, shape.m)
        m_a = math.ceil(shape.m / m_s_eff) * m_s_eff
        am_c = m_a * n_a * FP32
        if am_c > core.am_bytes // 2:
            continue  # the partial C must leave room for B_a ping-pong
        for k_a_seed in K_A_GRID:
            k_a_max = min(
                k_a_seed,
                shape.k,
                core.sm_bytes // (2 * m_s_eff * FP32),
                (core.am_bytes - am_c) // (2 * n_a * FP32),
            )
            if k_a_max < 1:
                continue
            k_a = _balanced_chunks(shape.k, k_a_max, 1, cluster.n_cores)
            try:
                plans.add(
                    KPlan(
                        m_g=max(m_a, shape.m), n_g=n_a, m_a=m_a,
                        n_a=n_a, k_a=k_a, m_s=m_s_eff,
                    ).validate(cluster)
                )
            except PlanError:
                continue
    return sorted(plans, key=lambda p: (p.m_s, p.k_a))


def _score(
    shape: GemmShape,
    cluster: ClusterConfig,
    strategy: str,
    plan,
    registry: KernelRegistry,
) -> Candidate:
    if strategy == "m":
        t = analytic_parallel_m(shape, cluster, plan, registry)
    else:
        t = analytic_parallel_k(shape, cluster, plan, registry)
    return Candidate(strategy, plan, t.seconds)


def _estimate_ops(shape: GemmShape, cand: Candidate) -> int:
    plan = cand.plan
    kernels = math.ceil(shape.m / plan.m_s) * math.ceil(shape.k / plan.k_a)
    return 2 * kernels + 16


def _des_score(
    shape: GemmShape,
    cluster: ClusterConfig,
    cand: Candidate,
    registry: KernelRegistry,
) -> Candidate:
    from .parallel_k import build_parallel_k
    from .parallel_m import build_parallel_m

    builder = build_parallel_m if cand.strategy == "m" else build_parallel_k
    timed = run_timed(
        builder(shape, cluster, plan=cand.plan, adjust=False, registry=registry)
    )
    return replace(cand, seconds=timed.seconds, validated=True)


def _score_unit(args: tuple) -> Candidate:
    """Picklable analytic-scoring work unit for pool workers.

    Workers resolve their own registry from the core config: kernels are
    not shipped through the pipe, and the persistent disk cache keeps the
    workers from repeating the parent's modulo scheduling.
    """
    shape, cluster, strategy, plan = args
    return _score(shape, cluster, strategy, plan, registry_for(cluster.core))


def _des_unit(args: tuple) -> Candidate:
    """Picklable DES-validation work unit for pool workers."""
    shape, cluster, cand = args
    return _des_score(shape, cluster, cand, registry_for(cluster.core))


def _exhaustive_scores(
    shape: GemmShape,
    cluster: ClusterConfig,
    work: list[tuple[str, MPlan | KPlan]],
    registry: KernelRegistry,
    effective_jobs: int,
    stats: SearchStats,
) -> list[Candidate]:
    """Score the whole grid (the ablation baseline): no bounds, no pruning."""
    if effective_jobs > 1:
        candidates = parallel_map(
            _score_unit,
            [(shape, cluster, s, p) for s, p in work],
            effective_jobs,
            chunksize=8,
        )
    else:
        candidates = [
            _score(shape, cluster, s, p, registry) for s, p in work
        ]
    stats.scored = len(candidates)
    best_t = math.inf
    for i, cand in enumerate(candidates):
        if cand.seconds < best_t:
            best_t = cand.seconds
            stats.trajectory.append((i + 1, cand.label, cand.seconds))
    return candidates


def _pruned_scores(
    shape: GemmShape,
    cluster: ClusterConfig,
    work: list[tuple[str, MPlan | KPlan]],
    bounds: list[float],
    registry: KernelRegistry,
    effective_jobs: int,
    k_keep: int,
    stats: SearchStats,
) -> list[Candidate]:
    """Best-first scoring with bound pruning.

    Candidates are visited in ascending bound order.  Scoring stops once
    the next candidate's *lower bound* exceeds the ``k_keep``-th best
    scored time: every skipped candidate is then provably slower than all
    ``k_keep`` finalists, so the finalist set — and therefore the
    selected plan — is bit-identical to scoring the whole grid.  Returned
    in generation order (the scored subset), preserving the exhaustive
    path's stable tie-breaking.
    """
    order = sorted(range(len(work)), key=lambda i: (bounds[i], i))
    scored: dict[int, Candidate] = {}
    times: list[float] = []  # sorted scored seconds
    best_t = math.inf
    wave = 1 if effective_jobs == 1 else effective_jobs * 4
    pos = 0
    while pos < len(order):
        if len(times) >= k_keep and bounds[order[pos]] > times[k_keep - 1]:
            break  # everything after pos has a bound at least this large
        take = order[pos : pos + wave]
        if effective_jobs > 1:
            cands = parallel_map(
                _score_unit,
                [(shape, cluster, *work[i]) for i in take],
                effective_jobs,
            )
        else:
            cands = [
                _score(shape, cluster, work[i][0], work[i][1], registry)
                for i in take
            ]
        for i, cand in zip(take, cands):
            scored[i] = cand
            bisect.insort(times, cand.seconds)
            if cand.seconds < best_t:
                best_t = cand.seconds
                stats.trajectory.append((len(scored), cand.label, cand.seconds))
        pos += len(take)
    stats.scored = len(scored)
    stats.pruned = len(work) - len(scored)
    return [scored[i] for i in sorted(scored)]


def autotune(
    shape: GemmShape,
    cluster: ClusterConfig,
    registry: KernelRegistry | None = None,
    *,
    validate_top: int = 3,
    jobs: int | None = None,
    mode: str = "pruned",
) -> AutotuneResult:
    """Search both strategies' candidate grids.

    Candidates are screened with the analytic model; the best
    ``validate_top`` of them (plus the rule-based plan) are re-scored with
    the event-driven simulator when the lowered plan is small enough
    (:data:`VALIDATE_OP_LIMIT`), and the final ranking uses the validated
    scores.  ``validate_top=0`` disables validation (pure analytic search
    — the ablation showing why validation matters); a negative value is
    rejected.

    ``mode="pruned"`` (default) orders candidates by a kernel-free
    analytic lower bound (:func:`~repro.core.plan_search.plan_bound`) and
    stops scoring once the next bound exceeds the running finalist set —
    typically well under half the grid is ever scored, and the selected
    plan is **bit-identical** to ``mode="exhaustive"`` (tested; see the
    docstring of ``_pruned_scores`` for why).  The result depends only on
    the arguments: no search outcome is stored or read back.

    ``jobs`` fans scoring and validation across worker processes
    (default: ``$REPRO_JOBS``, then the CPU count) — but only when the
    grid has at least :data:`~repro.parallel.POOL_MIN_UNITS` candidates,
    enough to amortize a pool spawn; smaller searches run serially (the
    BENCH_PR2 regression fix), recorded as ``tuner/search_serial`` vs
    ``tuner/search_pooled``.  Work units are mapped in candidate order
    and results collected in input order, and any extra candidates a
    parallel wave scores are strictly worse than the finalists, so the
    result is identical for every job count (tested).
    """
    if mode not in ("pruned", "exhaustive"):
        raise PlanError(f"unknown autotune mode {mode!r}")
    if validate_top < 0:
        raise PlanError(f"validate_top must be >= 0, got {validate_top}")
    if shape.n > N_MAX:
        raise PlanError(
            f"autotune targets the irregular domain (N <= {N_MAX}), "
            f"got N={shape.n}"
        )
    registry = registry or registry_for(cluster.core)
    m = _obs_current()
    jobs = resolve_jobs(jobs)
    stats = SearchStats(mode=mode)
    with ProfileScope("tuner/search_wall_s"):
        work = [
            ("m", plan) for plan in m_plan_candidates(shape, cluster)
        ] + [
            ("k", plan) for plan in k_plan_candidates(shape, cluster)
        ]
        stats.generated = len(work)
        if not work:
            raise PlanError(f"no feasible candidate plans for {shape}")

        # pool amortization: fan out only when the grid can earn the
        # spawn back
        pooled = jobs > 1 and len(work) >= POOL_MIN_UNITS
        effective_jobs = jobs if pooled else 1
        stats.pooled = pooled
        if m is not None and jobs > 1:
            m.counter(
                "tuner/search_pooled" if pooled else "tuner/search_serial"
            ).inc()

        decision = tune(shape, cluster)
        if decision.strategy == "tgemm":  # pragma: no cover - guarded above
            raise PlanError("rule-based tuner fell back to TGEMM")
        rule = _score(shape, cluster, decision.strategy, decision.plan, registry)

        if mode == "pruned":
            bounds = [plan_bound(shape, cluster, s, p) for s, p in work]
            stats.bound_evals = len(bounds)
            if m is not None:
                m.counter("tuner/bound_evals").inc(len(bounds))
            candidates = _pruned_scores(
                shape, cluster, work, bounds, registry, effective_jobs,
                max(1, validate_top), stats,
            )
            if m is not None and stats.pruned:
                m.counter("tuner/pruned").inc(stats.pruned)
        else:
            candidates = _exhaustive_scores(
                shape, cluster, work, registry, effective_jobs, stats
            )

        if m is not None:
            m.counter("tuner/searches").inc()
            m.counter("tuner/candidates_evaluated").inc(stats.scored + 1)

        candidates.sort(key=lambda c: c.seconds)
        best = candidates[0]
        if validate_top > 0:
            finalists = candidates[:validate_top]
            if all(
                _estimate_ops(shape, c) <= VALIDATE_OP_LIMIT
                for c in [*finalists, rule]
            ):
                with ProfileScope("tuner/des_validate_wall_s"):
                    if effective_jobs > 1:
                        validated = parallel_map(
                            _des_unit,
                            [(shape, cluster, c) for c in [*finalists, rule]],
                            effective_jobs,
                        )
                        finalists, rule = validated[:-1], validated[-1]
                    else:
                        finalists = [
                            _des_score(shape, cluster, c, registry)
                            for c in finalists
                        ]
                        rule = _des_score(shape, cluster, rule, registry)
                stats.des_validated = len(finalists) + 1
                if m is not None:
                    m.counter("tuner/des_validated").inc(len(finalists) + 1)
                best = min([*finalists, rule], key=lambda c: c.seconds)
        return AutotuneResult(
            shape=shape, best=best, rule=rule,
            n_candidates=len(work), stats=stats,
        )
