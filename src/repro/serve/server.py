"""The simulated-time serve engine: admit → batch → schedule → execute.

:class:`ServeEngine` is a small discrete-event simulation (arrival,
batch-timeout, batch-start and cluster-free events on one heap),
entirely driven by simulated seconds, with **streaming admission**:
requests enter via :meth:`ServeEngine.offer` at call time — there is no
pre-drawn request list inside the engine.  Two clients ride on top:

* :func:`serve` — the replay client: offers a pre-drawn open-loop
  stream in arrival order, runs the engine to completion and returns a
  :class:`ServeReport` with one record per request.  Same seed + config
  replays the identical request-level latency table, bit for bit.
* :class:`~repro.serve.gateway.Gateway` — the live asyncio client:
  callers ``await submit(...)`` and the virtual-clock bridge advances
  the engine only as far as the oldest outstanding await requires.

Events at equal simulated time are ordered arrivals-first, then by push
order — a rule that does not depend on *when* an event was pushed, so a
live caller interleaving offers with awaits produces records
bit-identical to the equivalent pre-drawn replay.

Contracts, enforced rather than hoped for:

* **No silent drops.** Every request ends ``completed``, ``shed`` (typed
  :class:`~repro.errors.OverloadError`, counted) or ``failed`` (typed
  ``FaultError`` after the re-dispatch budget, or ``InputError`` at
  admission, counted).
* **Checked once.** Admission validates each request's operands once:
  float32 dtypes, a finite A, and a finite B, whose finiteness the B
  intern keeps per distinct content (:func:`~repro.core.batched.b_finite`).
  A bad request becomes a ``failed`` record at its arrival instant and
  never reaches a batch.
* **Bit-exact responses.** Each batch member runs on its own standalone
  program, tuned and lowered once per distinct member shape per batch,
  so served bits are standalone :func:`~repro.core.ftimm.ftimm_gemm`
  bits by construction, also under a fault plan: ABFT and read-back
  copies give exact bits or a typed error, and a core failure re-runs
  the same program with a survivor taking over the dead core's op
  stream, so no served member is ever recomputed.
* **Honest accounting.** Failed fault-injection attempts charge their
  modeled time to the cluster (``lost_s``), cold tunes are charged to
  the batch that hit them, and shed requests stay in the tables.

:class:`ServeConfig` holds only the choices a caller makes.  The rest
is derived or fixed: the backend pool is every cluster the machine has,
batches are timed with the analytic model, and the cold-tune penalty and
replica knobs are module constants
(:data:`~repro.serve.scheduler.COLD_TUNE_S`,
:data:`~repro.serve.placement.PROMOTE_AFTER` and its neighbours).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from ..analysis.tables import format_table
from ..core.batched import b_finite, grouped_gemm
# ``ftimm_gemm`` is not called here: it stays importable under this name
# because perfbench's ``serve.verify`` layer wraps ``server.ftimm_gemm``
from ..core.ftimm import _run, ftimm_gemm, tuned_program
from ..core.lowering import GemmOperands
from ..core.shapes import GemmShape
from ..errors import FaultError, InputError, OverloadError, PlanError
from ..faults.plan import FaultPlan
from ..hw.config import MachineConfig, default_machine
from ..obs import current
from . import placement
from .batcher import (
    Batch,
    BucketKey,
    ShapeBucketBatcher,
    bucket_key,
    bucket_label,
    dtype_tag,
)
from .degrade import BURN_THRESHOLD, DegradePolicy, DegradeReport
from .placement import REPLICATE_MODES, PlacementManager, PlacementReport
from .request import (
    COMPLETED,
    FAILED,
    LATENCY_TABLE_HEADERS,
    SHED,
    BatchRecord,
    GemmRequest,
    RequestRecord,
)
from .scheduler import Scheduler, WarmKey, WarmupReport
from .slo import OnlineBurn
from .spans import serve_metrics, serve_spans

FP32 = 4


@dataclass(frozen=True)
class ServeConfig:
    """Everything that shapes a serve run (hashable, replayable).

    Nothing here shapes the trace: the serve spans are derived from the
    finished report (:func:`~repro.serve.spans.serve_spans`), and trace
    sampling is that builder's ``sample=`` argument.
    """

    policy: str = "least_loaded"
    #: four clusters make coarse batches pack badly; stacking gains
    #: saturate early, so a small cap wins at saturation (see harness)
    max_batch: int = 4
    max_wait_s: float = 5e-4
    queue_cap: int = 64            # admitted requests not yet started
    #: rule-tune every bucket class at its expected stacked M before
    #: the stream starts (:func:`warm_engine`); a class warmup did not
    #: cover pays the modeled :data:`~repro.serve.scheduler.COLD_TUNE_S`
    #: once
    warmup: bool = True
    faults: FaultPlan | None = None
    max_redispatch: int = 2
    #: graceful degradation: priority classes, burn-driven shedding,
    #: cluster quarantine.  None (default) keeps the loop bit-identical
    #: to the policy-free baseline.
    degrade: DegradePolicy | None = None
    #: per-cluster multiplier on the fault plan's bitflip/DMA rates —
    #: models one sick cluster in an otherwise healthy pool.  When set,
    #: fault attempts are seeded per cluster too (so moving a batch off
    #: a sick cluster actually changes its fate); length must equal the
    #: machine's cluster count.
    cluster_fault_scale: tuple[float, ...] | None = None
    #: replicated-B placement: "off" (bit-identical to the pre-placement
    #: engine) or "adaptive" (promote a digest once it draws
    #: :data:`~repro.serve.placement.PROMOTE_AFTER` batches).  Replication
    #: changes where batches run and what staging they pay, never the
    #: served bits.
    replicate_b: str = "off"

    def __post_init__(self) -> None:
        if self.queue_cap < 1:
            raise PlanError("queue_cap must be >= 1")
        if self.max_redispatch < 0:
            raise PlanError("max_redispatch must be >= 0")
        if self.cluster_fault_scale is not None and not all(
            math.isfinite(s) and s >= 0 for s in self.cluster_fault_scale
        ):
            raise PlanError(
                "cluster_fault_scale entries must be finite and >= 0"
            )
        if self.replicate_b not in REPLICATE_MODES:
            raise PlanError(
                f"replicate_b must be one of {REPLICATE_MODES}, "
                f"got {self.replicate_b!r}"
            )


@dataclass
class ServeReport:
    """Outcome of one serve run."""

    policy: str
    config: ServeConfig
    records: list[RequestRecord]
    batches: list[BatchRecord]
    warmup: WarmupReport
    makespan_s: float
    offered_rps: float
    #: always 0: a core failure keeps the program's partition and ABFT
    #: gives exact bits or an error, so no served member is recomputed
    #: (kept while the benchmark harness reads it)
    verify_repaired: int = 0
    #: degradation outcome (None when no degrade policy was configured)
    degrade: DegradeReport | None = None
    #: replicated-B placement outcome (None when ``replicate_b="off"``)
    placement: PlacementReport | None = None

    # -- aggregates --------------------------------------------------------

    def _count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return self._count(COMPLETED)

    @property
    def shed(self) -> int:
        return self._count(SHED)

    @property
    def failed(self) -> int:
        return self._count(FAILED)

    @property
    def rejected(self) -> int:
        """Failed at admission (typed ``InputError``): never batched."""
        return sum(1 for r in self.records
                   if r.status == FAILED and r.batch_id is None)

    @property
    def redispatches(self) -> int:
        """Failed dispatch attempts, summed over the batch records."""
        return sum(b.redispatches for b in self.batches)

    @property
    def deadline_met(self) -> int:
        return sum(1 for r in self.records if r.deadline_met is True)

    @property
    def deadline_missed(self) -> int:
        return sum(
            1 for r in self.records
            if r.deadline_met is False or r.status in (SHED, FAILED)
        )

    @property
    def goodput_rps(self) -> float:
        """Completed requests that met their SLO (or had none), per second."""
        if self.makespan_s <= 0:
            return 0.0
        good = sum(
            1 for r in self.records
            if r.status == COMPLETED and r.deadline_met is not False
        )
        return good / self.makespan_s

    @property
    def completed_rps(self) -> float:
        return self.completed / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def throughput_gflops(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        flops = sum(
            GemmShape(*map(int, r.shape.split("x"))).flops
            for r in self.records if r.status == COMPLETED
        )
        return flops / self.makespan_s / 1e9

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.n_items for b in self.batches) / len(self.batches)

    def latency_quantile(self, q: float) -> float:
        """Exact q-quantile of completed-request latency (seconds)."""
        lats = sorted(
            r.latency_s for r in self.records
            if r.status == COMPLETED and r.latency_s is not None
        )
        if not lats:
            return 0.0
        idx = min(len(lats) - 1, max(0, int(np.ceil(q * len(lats))) - 1))
        return lats[idx]

    # -- rendering ---------------------------------------------------------

    def latency_table(self, limit: int | None = None) -> str:
        """The deterministic request-level table (the replay contract)."""
        rows = [r.as_row() for r in self.records[:limit]]
        return format_table(LATENCY_TABLE_HEADERS, rows)

    def describe(self) -> str:
        parts = [
            f"policy {self.policy}: {self.n_requests} requests, "
            f"{self.completed} completed, {self.shed} shed, "
            f"{self.failed} failed",
            f"  offered {self.offered_rps:.0f} rps -> goodput "
            f"{self.goodput_rps:.0f} rps "
            f"({self.throughput_gflops:.2f} GFLOPS sustained)",
            f"  SLO: {self.deadline_met} met / {self.deadline_missed} missed",
            f"  latency p50/p95/p99: "
            f"{self.latency_quantile(0.50) * 1e3:.3f} / "
            f"{self.latency_quantile(0.95) * 1e3:.3f} / "
            f"{self.latency_quantile(0.99) * 1e3:.3f} ms",
            f"  batches: {len(self.batches)} "
            f"(mean size {self.mean_batch_size:.2f}), "
            f"re-dispatches {self.redispatches}, "
            f"warmed buckets {self.warmup.n_buckets}",
        ]
        if self.degrade is not None:
            parts.append(self.degrade.describe())
        if self.placement is not None:
            parts.append(self.placement.describe())
        return "\n".join(parts)


@dataclass
class _Execution:
    """What executing one batch cost and produced."""

    ok: bool
    gemm_s: float = 0.0
    tune_s: float = 0.0
    stage_s: float = 0.0
    #: staging with the shared B excluded — precomputed so a replica hit
    #: swaps ``stage_s`` for this value without re-deriving floats (the
    #: full-staging expression stays byte-for-byte what the pre-placement
    #: engine computed, preserving off-mode bit identity)
    stage_nob_s: float = 0.0
    #: did the batch run on a cluster already holding its B replica?
    b_resident: bool = False
    lost_s: float = 0.0
    error: str | None = None
    attempt_errors: list[str] = field(default_factory=list)
    #: the backend the final attempt ran on (health-aware re-routing may
    #: move a batch off the cluster it was first bound to)
    backend: object | None = None
    #: the cluster each failed attempt ran on
    fault_clusters: list[int] = field(default_factory=list)

    @property
    def span_s(self) -> float:
        return self.tune_s + self.stage_s + self.gemm_s + self.lost_s


#: heap tie-break rank at equal simulated time: arrivals first, then
#: everything else in push order.  In a replay all arrivals are pushed
#: before the run starts (smallest sequence numbers), so this rule is
#: exactly the order the pre-rank loop already produced — but unlike raw
#: push order it also holds when arrivals stream in live, which is what
#: makes gateway records bit-identical to the replay's.
_RANK_ARRIVE = 0
_RANK_OTHER = 1


class ServeEngine:
    """The streaming serve engine: one run's mutable DES state.

    Requests are *offered* (streaming admission at call time), events are
    advanced explicitly, and every offered request deterministically ends
    in :attr:`records` — completed, typed-shed or typed-failed.  The
    engine never looks at a request list: :func:`serve` replays a
    pre-drawn stream through it, and the asyncio
    :class:`~repro.serve.gateway.Gateway` feeds it live submissions.
    """

    def __init__(
        self,
        config: ServeConfig,
        machine: MachineConfig,
    ) -> None:
        self.config = config
        self.machine = machine
        self.batcher = ShapeBucketBatcher(
            max_batch=config.max_batch,
            max_wait_s=config.max_wait_s,
        )
        n_clusters = machine.n_clusters
        if (
            config.cluster_fault_scale is not None
            and len(config.cluster_fault_scale) != n_clusters
        ):
            raise PlanError(
                f"cluster_fault_scale has {len(config.cluster_fault_scale)} "
                f"entries for {n_clusters} clusters"
            )
        #: replicated-B placement manager; None keeps the binding paths
        #: (and the records) bit-identical to the pre-placement engine
        self.placement: PlacementManager | None = None
        if config.replicate_b != "off":
            self.placement = PlacementManager(
                n_clusters=n_clusters,
                budget_bytes=placement.REPLICA_BUDGET_BYTES,
                max_replicas=placement.MAX_REPLICAS,
                promote_after=placement.PROMOTE_AFTER,
                cpu_bw=machine.cpu.ddr_bandwidth,
            )
        self.sched = Scheduler(
            n_clusters=n_clusters,
            policy=config.policy,
            machine=machine,
            health=(config.degrade.health
                    if config.degrade is not None else None),
            placement=self.placement,
        )
        #: online burn estimator feeding proactive shedding (degrade only)
        self.burn: OnlineBurn | None = None
        if config.degrade is not None:
            self.burn = OnlineBurn.fast_window()
        self.records: dict[int, RequestRecord] = {}
        self.batch_records: list[BatchRecord] = []
        self.pending = 0               # admitted, not yet started
        self.last_finish_s = 0.0
        self.last_arrival_s = 0.0
        #: the engine's virtual clock: the latest simulated instant any
        #: event or offer has been processed at (monotone)
        self.now_s = 0.0
        self._events: list[tuple[float, int, int, str, object]] = []
        self._seq = 0
        self._finished = False
        #: EDF central queue: (deadline, close_s, batch_id, batch)
        self._ready: list[tuple[float, float, int, Batch]] = []

    # -- event plumbing ----------------------------------------------------

    def _push(self, at_s: float, kind: str, payload: object) -> None:
        rank = _RANK_ARRIVE if kind == "arrive" else _RANK_OTHER
        heapq.heappush(self._events, (at_s, rank, self._seq, kind, payload))
        self._seq += 1

    def _step(self) -> None:
        """Pop and process exactly one event."""
        now, _rank, _seq, kind, payload = heapq.heappop(self._events)
        if now > self.now_s:
            self.now_s = now
        if kind == "arrive":
            self._on_arrive(payload, now)
        elif kind == "timeout":
            batch = self.batcher.close_due(payload, now)
            if batch is not None:
                self._on_close(batch, now)
        elif kind == "start":
            self.pending -= payload
            self._gauge_queue()
        elif kind == "free":
            self._edf_pull(now)
        else:  # pragma: no cover - defensive
            raise PlanError(f"unknown event {kind!r}")

    # -- streaming admission ----------------------------------------------

    def offer(self, req: GemmRequest, *, arrival_s: float | None = None) -> None:
        """Admit (or typed-shed) one request at its arrival instant.

        The engine first advances through every event strictly earlier
        than the arrival (events *at* the arrival instant stay queued —
        arrivals win ties, the replay rule), then runs admission: shed
        decisions, bucket coalescing and batch closes happen right here,
        so a full bucket executes synchronously and
        ``records[req.req_id]`` may already exist when this returns.
        """
        at = req.arrival_s if arrival_s is None else arrival_s
        if self._finished:
            raise PlanError("engine already finished")
        if at < self.last_arrival_s:
            raise PlanError(
                f"request {req.req_id} arrives at {at} before the "
                f"previous offer at {self.last_arrival_s} — offers must "
                "be in non-decreasing arrival order"
            )
        if req.req_id in self.records:
            raise PlanError(f"duplicate request id {req.req_id}")
        self.advance_to(at)
        self.last_arrival_s = at
        if at > self.now_s:
            self.now_s = at
        self._on_arrive(req, at)

    def advance_to(self, t_s: float) -> None:
        """Process every queued event strictly earlier than ``t_s``."""
        while self._events and self._events[0][0] < t_s:
            self._step()

    def resolved(self, req_id: int) -> bool:
        return req_id in self.records

    def advance_until(self, req_id: int) -> RequestRecord:
        """Advance the DES just far enough to resolve ``req_id``.

        This is the virtual-clock bridge's workhorse: it pops events in
        deterministic order until the request's record exists, falling
        back to the EDF ready-queue drain when the heap runs dry (a
        quarantined backend is not "free" until its cooldown expires —
        ``next_ready_s`` covers it).  The clock never moves further than
        the awaited request requires.
        """
        while req_id not in self.records:
            if self._events:
                self._step()
            elif self._ready:
                now = max(self.now_s, self.sched.next_ready_s())
                self.now_s = now
                self._edf_pull(now)
            else:  # pragma: no cover - contract guard
                raise PlanError(
                    f"request {req_id} cannot resolve: no pending events"
                )
        return self.records[req_id]

    def finish(self) -> None:
        """End of stream: run every event, close stragglers, drain EDF."""
        if self._finished:
            return
        while self._events:
            self._step()
        t_end = max(self.last_arrival_s, self.last_finish_s)
        for batch in self.batcher.drain(t_end):
            self._on_close(batch, t_end)
        # EDF queue drains against future frees (a quarantined backend is
        # not "free" until its cooldown expires — next_ready_s covers it)
        while self._ready:
            now = max(t_end, self.sched.next_ready_s())
            self._edf_pull(now)
        self.now_s = max(self.now_s, t_end, self.last_finish_s)
        self._finished = True

    # -- handlers ----------------------------------------------------------

    def _on_arrive(self, req: GemmRequest, now: float) -> None:
        pol = self.config.degrade
        pcls = pol.classify(req) if pol is not None else None
        reason = None
        if self.pending >= self.config.queue_cap:
            reason = "queue_full"
        elif pcls is not None:
            # proactive, class-aware admission: loose classes lose their
            # queue headroom first, then their burn budget
            if (
                pcls.admit_above < 1.0
                and self.pending >= pcls.admit_above * self.config.queue_cap
            ):
                reason = "class_shed"
            elif (
                pcls.burn_shed
                and self.burn is not None
                and self.burn.burn_at(now) >= BURN_THRESHOLD
            ):
                reason = "burn_shed"
        if reason is not None:
            self._shed(req, now, reason, pcls)
            return
        try:
            key = _admission_key(req)
        except InputError as exc:
            self._refuse(req, FAILED, f"{type(exc).__name__}: {exc}", pcls)
            return
        self.pending += 1
        self._gauge_queue()
        batch, opened = self.batcher.add(req, key, now)
        if batch is not None:
            self._on_close(batch, now)
        elif opened is not None:
            # only the request that *opened* the bucket arms its timer;
            # a bucket re-opened after a close gets a fresh event
            self._push(self.batcher.due_at(opened), "timeout", opened)

    def _shed(
        self,
        req: GemmRequest,
        now: float,
        reason: str,
        pcls,
    ) -> None:
        err = OverloadError(req.req_id, self.config.queue_cap, reason=reason)
        self._refuse(req, SHED, str(err), pcls, shed_reason=reason)
        if self.burn is not None and reason == "queue_full":
            # a reactive drop is genuine badness; deliberate class/burn
            # sheds are excluded or the monitor would latch itself on
            self.burn.add(now, True)

    def _refuse(
        self,
        req: GemmRequest,
        status: str,
        error: str,
        pcls,
        *,
        shed_reason: str | None = None,
    ) -> None:
        """Record a request that never reaches a batch: shed, or failed
        at admission."""
        self.records[req.req_id] = RequestRecord(
            req_id=req.req_id,
            klass=req.klass,
            shape=str(req.shape),
            arrival_s=req.arrival_s,
            status=status,
            deadline_s=req.deadline_s,
            deadline_met=False if req.deadline_s is not None else None,
            error=error,
            priority=pcls.name if pcls is not None else None,
            shed_reason=shed_reason,
        )

    def _on_close(self, batch: Batch, now: float) -> None:
        if self.placement is not None:
            # batch close is the deterministic promotion point shared by
            # replay and gateway; staging charges land on cluster
            # timelines, so EDF needs a pull opportunity at each end
            staged = self.placement.on_close(batch.key, self.sched, now)
            if self.config.policy == "edf":
                for _cluster, _start, end in staged:
                    self._push(end, "free", None)
        if self.config.policy == "edf":
            deadline = batch.deadline_s
            heapq.heappush(self._ready, (
                deadline if deadline is not None else float("inf"),
                batch.close_s, batch.batch_id, batch,
            ))
            self._edf_pull(now)
            return
        self._bind(batch, self.sched.pick_backend(
            now, key=batch.key if self.placement is not None else None
        ), now)

    def _bind(self, batch: Batch, backend, now: float) -> None:
        """Execute ``batch`` on ``backend`` at ``now`` and place it on the
        timeline — the one bind path of every policy.

        Fault attempts run on (and are attributed to) the cluster the
        batch is bound to; with a health policy a faulted attempt
        re-routes, and the batch lands on the cluster its final attempt
        ran on.
        """
        execution = self._execute(batch, now, backend)
        backend = execution.backend
        self._apply_residency(batch, execution, backend, now)
        start = max(now, backend.busy_until_s)
        if start > now:
            self._push(start, "start", batch.n_items)
        else:
            self.pending -= batch.n_items
            self._gauge_queue()
        self._finalize(batch, execution, backend, start)

    def _apply_residency(
        self, batch: Batch, execution: _Execution, backend, now: float
    ) -> None:
        """Let a batch bound to a replica holder skip its B staging.

        Residency is decided against the *final* backend (after any
        health-aware fault re-route), so a batch moved off a holder
        honestly pays its re-stage.
        """
        if self.placement is not None and self.placement.use_replica(
            batch.key, backend.idx, now
        ):
            execution.stage_s = execution.stage_nob_s
            execution.b_resident = True

    def _edf_pull(self, now: float) -> None:
        while self._ready:
            # the head batch is the one an idle backend would pull, so
            # its key steers the idle-holder preference
            key = self._ready[0][3].key if self.placement is not None else None
            backend = self.sched.idle_backend(now, key=key)
            if backend is None:
                return
            self._bind(heapq.heappop(self._ready)[-1], backend, now)

    # -- execution ---------------------------------------------------------

    def _execute(
        self,
        batch: Batch,
        now: float,
        backend,
    ) -> _Execution:
        """Run the batch on ``backend`` functionally + under the cost model.

        Each member runs on its own standalone program, so its bits are
        the standalone bits by construction; each distinct member shape
        is tuned and lowered once per batch, and every member runs with
        the operands admission checked.  The batch is charged the stacked
        program the grouped call models (stacking changes only the M
        blocking, never a member's strategy or K blocking).  Fault
        attempts are attributed to the cluster they run on, and with a
        health policy a faulted attempt re-routes to another eligible
        cluster.  A failed attempt leaves every ``C_i`` untouched: under
        a fault plan members compute into copies, written back once the
        whole attempt succeeded.
        """
        cfg = self.config
        route = backend
        n, k, dtype, _b = batch.key
        tune_s = self.sched.tune_penalty((n, k, dtype))
        m_blocks = [r.shape.m for r in batch.requests]
        cluster = self.machine.cluster
        programs = {}
        for req in batch.requests:
            if req.shape not in programs:
                programs[req.shape] = tuned_program(req.shape, cluster)

        # staging through the host into the cluster's memory partition:
        # A blocks + one shared B in, C in and out
        cpu_bw = self.machine.cpu.ddr_bandwidth
        a_bytes = sum(r.shape.m * r.shape.k for r in batch.requests) * FP32
        c_bytes = sum(r.shape.m * r.shape.n for r in batch.requests) * FP32
        b_bytes = k * n * FP32
        stage_s = (a_bytes + b_bytes + 2 * c_bytes) / cpu_bw
        stage_nob_s = (a_bytes + 2 * c_bytes) / cpu_bw

        # the stacked program the batch is charged, once: the analytic
        # model reads no fault plan, so a failed attempt costs the same
        gemm_s = grouped_gemm(
            None, None, None, m_blocks=m_blocks, n=n, k=k,
            machine=self.machine, timing="analytic",
        ).seconds
        lost_s = 0.0
        attempt_errors: list[str] = []
        failed_on: list[int] = []
        while True:
            attempt = len(attempt_errors)
            faults = None
            if cfg.faults is not None:
                seed = (
                    cfg.faults.seed + 1_000 * attempt + 7 * batch.batch_id
                )
                overrides: dict[str, object] = {}
                if cfg.cluster_fault_scale is not None:
                    # per-cluster fault attribution: rates scale with the
                    # cluster's sickness and the seed depends on *which*
                    # cluster runs the attempt, so re-routing a batch off
                    # a sick cluster genuinely changes its fate
                    scale = cfg.cluster_fault_scale[route.idx]
                    seed += 13_001 * route.idx
                    overrides["bitflip_rate"] = min(
                        1.0, cfg.faults.bitflip_rate * scale
                    )
                    overrides["dma_fail_rate"] = min(
                        1.0, cfg.faults.dma_fail_rate * scale
                    )
                faults = dc_replace(cfg.faults, seed=seed, **overrides)
            try:
                served = []
                for i, req in enumerate(batch.requests):
                    c = req.c if faults is None else req.c.copy()
                    decision, program = programs[req.shape]
                    _run(
                        req.shape, cluster, decision,
                        GemmOperands(req.a, req.b, c), timing="none",
                        # each member draws its own fault sites, so
                        # members of one shape do not share them
                        faults=None if faults is None else dc_replace(
                            faults, seed=faults.seed + 101 * i
                        ),
                        program=program,
                    )
                    served.append((req, c))
                break
            except FaultError as exc:
                # the failed attempt's modeled time is honestly lost
                lost_s += gemm_s
                attempt_errors.append(f"{type(exc).__name__}: {exc}")
                failed_on.append(route.idx)
                self.sched.note_fault(route.idx, now, attempt_errors[-1])
                if self.sched.health is not None:
                    route = self.sched.route_retry(now, set(failed_on))
                if len(attempt_errors) > cfg.max_redispatch:
                    served = None
                    break

        for req, c in served or ():
            if c is not req.c:
                req.c[...] = c
        return _Execution(
            ok=served is not None,
            gemm_s=gemm_s if served is not None else 0.0,
            tune_s=tune_s,
            stage_s=stage_s,
            stage_nob_s=stage_nob_s,
            lost_s=lost_s,
            error=None if served is not None else attempt_errors[-1],
            attempt_errors=attempt_errors,
            backend=route,
            fault_clusters=failed_on,
        )

    def _finalize(
        self,
        batch: Batch,
        execution: _Execution,
        backend,
        start_s: float,
    ) -> None:
        finish = backend.charge(start_s, execution.span_s)
        if self.config.policy == "edf":
            # a pull opportunity the moment this backend frees up
            self._push(finish, "free", None)
        if execution.ok:
            self.sched.note_success(backend.idx, finish)
        self.last_finish_s = max(self.last_finish_s, finish)
        self.batch_records.append(BatchRecord(
            batch_id=batch.batch_id,
            bucket=bucket_label(batch.key),
            n_items=batch.n_items,
            close_s=batch.close_s,
            start_s=start_s,
            finish_s=finish,
            cluster=backend.idx,
            stacked_m=batch.stacked_m,
            tune_s=execution.tune_s,
            stage_s=execution.stage_s,
            gemm_s=execution.gemm_s,
            lost_s=execution.lost_s,
            request_ids=[r.req_id for r in batch.requests],
            b_resident=execution.b_resident,
            close_reason=batch.reason,
            attempt_errors=execution.attempt_errors,
            fault_clusters=execution.fault_clusters,
        ))
        for req in batch.requests:
            queue_s = batch.close_s - req.arrival_s
            batch_s = start_s - batch.close_s
            met = None
            if req.deadline_s is not None:
                met = execution.ok and finish <= req.deadline_s
            status = COMPLETED if execution.ok else FAILED
            pcls = (
                self.config.degrade.classify(req)
                if self.config.degrade is not None else None
            )
            if self.burn is not None:
                # outcome feeds the online burn estimate at its finish
                # time — causal for every later admission decision
                self.burn.add(finish, (not execution.ok) or met is False)
            self.records[req.req_id] = RequestRecord(
                req_id=req.req_id,
                klass=req.klass,
                shape=str(req.shape),
                arrival_s=req.arrival_s,
                status=status,
                queue_s=queue_s,
                batch_s=batch_s,
                compute_s=execution.span_s,
                finish_s=finish,
                deadline_s=req.deadline_s,
                deadline_met=met,
                batch_id=batch.batch_id,
                batch_size=batch.n_items,
                cluster=backend.idx,
                error=execution.error,
                priority=pcls.name if pcls is not None else None,
            )

    def _gauge_queue(self) -> None:
        m = current()
        if m is not None:
            m.gauge("serve/queue/depth").set(self.pending)


def _admission_key(req: GemmRequest) -> BucketKey:
    """Check ``req``'s operands once and return its bucket key.

    Raises :class:`~repro.errors.InputError` for operands the engine
    cannot serve: a dtype other than float32 (members and the batch
    charge run the float32 kernels), or a NaN/Inf in A or B, which would
    poison the result and defeat the ABFT checksums.  A is read once.
    B's finiteness comes from the intern entry its digest found, so each
    distinct B content is read for it once.
    """
    for name, arr in (("A", req.a), ("B", req.b), ("C", req.c)):
        if dtype_tag(arr.dtype) != "f32":
            raise InputError(f"{name} must be float32, got {arr.dtype}")
    if not np.isfinite(req.a).all():
        raise InputError("A contains NaN or Inf entries")
    key = bucket_key(req)
    if not b_finite(req.b, key[3]):
        raise InputError("B contains NaN or Inf entries")
    return key


def warm_engine(
    engine: ServeEngine, requests: list[GemmRequest]
) -> WarmupReport:
    """Pre-tune every distinct bucket class the request stream will hit.

    Shared by the replay client (:func:`serve`) and the asyncio
    :class:`~repro.serve.gateway.Gateway`, so both paths generate the
    same micro-kernels up front (the state warmup leaves: the kernels and
    the analytic results of its calls; the tuner caches nothing and an
    analytic call lowers nothing) and charge
    identical cold-tune penalties — part of the gateway-vs-replay
    bit-identity contract.  Each class is rule-tuned at its first
    request's M; warmup only steers which kernels get pre-generated,
    never results.
    """
    config = engine.config
    if not config.warmup:
        return WarmupReport()
    seen: dict[WarmKey, GemmShape] = {}
    for req in requests:
        if req.b.dtype != np.float32:
            continue  # admission refuses it, so no batch has its class
        seen.setdefault((req.shape.n, req.shape.k, "f32"), req.shape)
    return engine.sched.warm([(s, key[2]) for key, s in seen.items()])


def assemble_report(
    engine: ServeEngine, warmup: WarmupReport
) -> ServeReport:
    """Build the :class:`ServeReport` from a finished (or closed) engine."""
    config = engine.config
    records = [engine.records[rid] for rid in sorted(engine.records)]
    last_arrival = engine.last_arrival_s
    makespan = max(engine.last_finish_s, last_arrival)
    batches = sorted(engine.batch_records, key=lambda b: b.batch_id)
    degrade_report = None
    if config.degrade is not None:
        sheds = [r for r in records if r.status == SHED]
        reasons = Counter(r.shed_reason for r in sheds)
        kinds = Counter(e.kind for e in engine.sched.degrade_events)
        degrade_report = DegradeReport(
            shed_queue_full=reasons["queue_full"],
            shed_class=reasons["class_shed"],
            shed_burn=reasons["burn_shed"],
            peak_burn=engine.burn.peak,
            faults=sum(len(b.fault_clusters) for b in batches),
            quarantines=kinds["quarantine"],
            probes=kinds["probe"],
            recoveries=kinds["recover"],
            shed_by_class=dict(Counter(r.priority for r in sheds)),
            # faults are noted at bind time, successes at finish, so
            # the raw append order is not the timeline order
            events=sorted(engine.sched.degrade_events, key=lambda e: e.at_s),
        )
    return ServeReport(
        policy=config.policy,
        config=config,
        records=records,
        batches=batches,
        warmup=warmup,
        makespan_s=makespan,
        offered_rps=(
            len(records) / last_arrival if last_arrival > 0 else 0.0
        ),
        degrade=degrade_report,
        placement=(
            engine.placement.report()
            if engine.placement is not None else None
        ),
    )


def serve(
    requests: list[GemmRequest],
    config: ServeConfig | None = None,
    *,
    machine: MachineConfig | None = None,
) -> ServeReport:
    """Serve an open-loop request stream; returns one record per request.

    A thin replay client of :class:`ServeEngine`: every request is
    offered in arrival order and the engine runs to completion.
    """
    config = config or ServeConfig()
    machine = machine or default_machine()
    if not requests:
        raise PlanError("empty request stream")
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))

    engine = ServeEngine(config, machine)
    warmup = warm_engine(engine, ordered)
    for req in ordered:
        engine.offer(req)
    engine.finish()

    if len(engine.records) != len(ordered):  # pragma: no cover - guard
        raise PlanError("a request was dropped silently")
    report = assemble_report(engine, warmup)
    serve_spans(report)
    serve_metrics(report)
    return report
