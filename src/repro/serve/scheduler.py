"""Dispatch of closed batches onto the four GPDSP clusters.

Each cluster is an independent backend — the FT-m7032 gives every GPDSP
cluster a private DDR port, so clusters serve concurrent batches without
contending (the same observation :mod:`repro.core.multi_cluster` scales a
*single* GEMM on; here it scales a *request stream*).  Operand staging
into a cluster's memory partition is host-mediated and costed at the
CPU's DDR bandwidth, exactly like multi-cluster B replication.

Three pluggable policies:

* ``fifo``         — batches are bound round-robin to clusters in close
  order (static partitioning; a hot bucket can queue behind a busy
  cluster while another sits idle — the honest baseline);
* ``least_loaded`` — close order, but each batch goes to the cluster
  that frees up earliest (greedy work-conserving list scheduling);
* ``edf``          — batches wait in a central earliest-deadline-first
  queue and clusters *pull* from it as they free, so a late-closing but
  urgent batch overtakes patient bulk work.

Warmup: steady-state serving must never pay kernel generation on the
critical path, so the scheduler runs one timing-only call per distinct
bucket shape class before the stream starts, which generates (and
caches) the micro-kernels that class's plan uses, at the M of the
class's first request.  The tuner caches nothing, and a timing-only
analytic call lowers no program, so the kernels are all that warmup
leaves behind.

A batch whose bucket was *not* warmed is charged :data:`COLD_TUNE_S`
once per bucket — visible in the latency histograms, which is the point.
The penalty is a modeled constant, never a measured wall, so replays
stay bit-identical across runs and machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.ftimm import ftimm_gemm
from ..core.shapes import GemmShape
from ..errors import PlanError
from ..hw.config import MachineConfig
from ..obs.trace import maybe_scope
from .degrade import DegradeEvent, HealthPolicy

POLICIES = ("fifo", "least_loaded", "edf")

#: warmup granularity: one tuning decision + kernel set per (N, K, dtype).
WarmKey = tuple[int, int, str]

#: the modeled un-warmed plan-search penalty, in seconds.
COLD_TUNE_S = 5e-4


@dataclass
class ClusterBackend:
    """One GPDSP cluster acting as an independent serving backend."""

    idx: int
    busy_until_s: float = 0.0
    batches: int = 0
    busy_s: float = 0.0

    def charge(self, start_s: float, span_s: float) -> float:
        """Occupy the backend for [start, start+span]; returns the finish."""
        if start_s < self.busy_until_s:
            raise PlanError(
                f"cluster {self.idx}: start {start_s} before busy_until "
                f"{self.busy_until_s}"
            )
        self.busy_until_s = start_s + span_s
        self.batches += 1
        self.busy_s += span_s
        return self.busy_until_s

    def occupy(self, start_s: float, span_s: float) -> float:
        """Occupy the backend without counting a batch.

        Used for replica staging (:mod:`repro.serve.placement`): the
        host copies a B matrix into this cluster's memory partition,
        which blocks the cluster's timeline but is not a served batch.
        """
        if start_s < self.busy_until_s:
            raise PlanError(
                f"cluster {self.idx}: occupy at {start_s} before "
                f"busy_until {self.busy_until_s}"
            )
        self.busy_until_s = start_s + span_s
        self.busy_s += span_s
        return self.busy_until_s


@dataclass
class ClusterHealth:
    """Breaker state for one backend (only with a health policy)."""

    state: str = "healthy"         # healthy | quarantined | probing
    consecutive_faults: int = 0
    until_s: float = 0.0           # quarantine expiry (when quarantined)
    cooldown_s: float = 0.0        # current (backed-off) cooldown


@dataclass
class WarmupReport:
    """What pre-tuning did before the stream started."""

    n_buckets: int = 0
    wall_s: float = 0.0
    keys: list[WarmKey] = field(default_factory=list)


class Scheduler:
    """Backend pool + policy state shared by the serve event loop."""

    def __init__(
        self,
        *,
        n_clusters: int,
        policy: str,
        machine: MachineConfig,
        health: HealthPolicy | None = None,
        placement=None,
    ) -> None:
        if policy not in POLICIES:
            raise PlanError(
                f"unknown policy {policy!r} (have {', '.join(POLICIES)})"
            )
        if n_clusters < 1:
            raise PlanError("n_clusters must be >= 1")
        self.policy = policy
        self.machine = machine
        self.backends = [ClusterBackend(i) for i in range(n_clusters)]
        self._rr = 0
        self._warmed: set[WarmKey] = set()
        self.health_policy = health
        self.health = (
            [ClusterHealth() for _ in range(n_clusters)]
            if health is not None else None
        )
        #: replicated-B placement map (None = placement off); binding
        #: consults it so batches run where their B is already resident
        self.placement = placement
        self.degrade_events: list[DegradeEvent] = []

    # -- cluster selection -------------------------------------------------

    def _eligible(self, now: float) -> list[ClusterBackend]:
        """Backends a batch may be routed to at ``now``.

        Quarantined backends are excluded until their cooldown expires
        (the first post-expiry selection is the probe).  When *every*
        backend is quarantined the full pool is returned — the server
        must never deadlock on an all-sick cluster set, it just keeps
        probing.
        """
        if self.health is None:
            return self.backends
        ok = [
            b for b in self.backends
            if self.health[b.idx].state != "quarantined"
            or self.health[b.idx].until_s <= now
        ]
        return ok or self.backends

    def _note_selected(self, backend: ClusterBackend, now: float) -> None:
        """Selecting a quarantine-expired backend turns it into a probe."""
        if self.health is None:
            return
        h = self.health[backend.idx]
        if h.state == "quarantined" and h.until_s <= now:
            h.state = "probing"
            self._health_event(backend.idx, now, "probe",
                               f"cooldown {h.cooldown_s * 1e3:g} ms over")

    def pick_backend(
        self, now: float | None = None, key=None
    ) -> ClusterBackend:
        """Eager binding for fifo (round-robin) / least_loaded (greedy).

        With a placement map, a batch whose B is replicated binds to the
        least-loaded *routable* replica holder regardless of policy —
        replication exists to buy that freedom.  When no holder is
        routable (e.g. every holder quarantined) the batch falls back to
        the policy's normal binding and re-stages its B there.
        """
        pool = (
            self.backends if (self.health is None or now is None)
            else self._eligible(now)
        )
        if self.placement is not None and key is not None:
            holder = self.placement.holder_in(key, pool)
            if holder is not None:
                if now is not None:
                    self._note_selected(holder, now)
                return holder
        if self.policy == "fifo":
            backend = pool[self._rr % len(pool)]
            self._rr += 1
        else:
            # least_loaded: earliest-free backend, lowest index on ties
            backend = min(pool, key=lambda b: (b.busy_until_s, b.idx))
        if now is not None:
            self._note_selected(backend, now)
        return backend

    def route_retry(
        self, now: float, exclude: set[int]
    ) -> ClusterBackend:
        """Health-aware re-route of a faulted attempt.

        Prefers eligible backends the batch has not already faulted on
        (``exclude``); falls back to the eligible pool, then the full
        pool — a retry always gets *somewhere* to run.
        """
        eligible = self._eligible(now)
        pool = [b for b in eligible if b.idx not in exclude] or eligible
        backend = min(pool, key=lambda b: (b.busy_until_s, b.idx))
        self._note_selected(backend, now)
        return backend

    def idle_backend(self, now: float, key=None) -> ClusterBackend | None:
        """An idle backend at ``now`` (EDF pull), or None.

        With a placement map and a bucket ``key``, an idle replica
        holder is preferred over the lowest-index idle backend; a pull
        with no idle holder still proceeds (EDF urgency outranks data
        locality) and the batch re-stages its B.
        """
        free = [
            b for b in self._eligible(now) if b.busy_until_s <= now
        ]
        if not free:
            return None
        backend = None
        if self.placement is not None and key is not None:
            backend = self.placement.holder_in(key, free)
        if backend is None:
            backend = min(free, key=lambda b: b.idx)
        self._note_selected(backend, now)
        return backend

    def next_free_s(self) -> float:
        return min(b.busy_until_s for b in self.backends)

    def next_ready_s(self) -> float:
        """Earliest time any backend is both free and routable.

        Equals :meth:`next_free_s` without a health policy; with one, a
        quarantined backend is not ready before its cooldown expires.
        """
        if self.health is None:
            return self.next_free_s()
        times = []
        for b in self.backends:
            t = b.busy_until_s
            h = self.health[b.idx]
            if h.state == "quarantined":
                t = max(t, h.until_s)
            times.append(t)
        return min(times)

    # -- cluster health ----------------------------------------------------

    def _health_event(
        self, cluster: int, at_s: float, kind: str, detail: str = ""
    ) -> None:
        self.degrade_events.append(
            DegradeEvent(at_s=at_s, cluster=cluster, kind=kind,
                         detail=detail)
        )

    def note_fault(
        self, idx: int, now: float, error: str = ""
    ) -> None:
        """One faulted dispatch attempt was attributed to backend ``idx``."""
        if self.health is None:
            return
        pol = self.health_policy
        h = self.health[idx]
        h.consecutive_faults += 1
        if (
            h.state == "probing"
            or h.consecutive_faults >= pol.fault_threshold
        ):
            probe_failed = h.state == "probing"
            h.cooldown_s = (
                pol.cooldown_s if h.cooldown_s <= 0.0
                else min(h.cooldown_s * pol.backoff, pol.max_cooldown_s)
            )
            h.state = "quarantined"
            h.until_s = now + h.cooldown_s
            h.consecutive_faults = 0
            detail = (
                f"{'probe faulted' if probe_failed else error or 'faults'}"
                f", cooldown {h.cooldown_s * 1e3:g} ms"
            )
            self._health_event(idx, now, "quarantine", detail)

    def note_success(self, idx: int, now: float) -> None:
        """A batch completed cleanly on backend ``idx``."""
        if self.health is None:
            return
        h = self.health[idx]
        if h.state == "probing":
            h.state = "healthy"
            h.cooldown_s = 0.0
            h.consecutive_faults = 0
            self._health_event(idx, now, "recover", "probe succeeded")
        else:
            h.consecutive_faults = 0

    # -- warmup ------------------------------------------------------------

    def warm(self, shapes: list[tuple[GemmShape, str]]) -> WarmupReport:
        """Pre-tune every distinct bucket class, off the critical path.

        One rule-tuner pass (a timing-only analytic ftIMM call) per
        distinct (N, K, dtype) at the M of its first shape, which
        generates and caches the micro-kernels that class's plan uses.
        It caches no tuning decision and lowers no program: the kernels
        and the call's analytic result are all it leaves behind.
        """
        report = WarmupReport()
        t0 = time.perf_counter()
        with maybe_scope(
            "warmup", category="warmup", track="scheduler", pid=0
        ) as scope:
            for shape, dtype in shapes:
                key: WarmKey = (shape.n, shape.k, dtype)
                if key in self._warmed:
                    continue
                ftimm_gemm(
                    shape.m, shape.n, shape.k,
                    machine=self.machine, timing="analytic", dtype=dtype,
                )
                self._warmed.add(key)
                report.keys.append(key)
                report.n_buckets += 1
            if scope is not None:
                scope.args["n_buckets"] = report.n_buckets
        report.wall_s = time.perf_counter() - t0
        return report

    def tune_penalty(self, key: WarmKey) -> float:
        """Cold-tuning cost: :data:`COLD_TUNE_S` the first time a bucket
        class runs un-warmed, zero once it is warm."""
        if key in self._warmed:
            return 0.0
        self._warmed.add(key)
        return COLD_TUNE_S

    # -- accounting --------------------------------------------------------

    def utilization(self, makespan_s: float) -> float:
        if makespan_s <= 0:
            return 0.0
        busy = sum(b.busy_s for b in self.backends)
        return busy / (makespan_s * len(self.backends))
