"""Load-aware replicated-B placement across GPDSP clusters.

The multi-cluster cost model already replicates B across clusters to
scale a *single* GEMM (:mod:`repro.core.multi_cluster` — each cluster
owns a private DDR port, so the copy is paid once and the compute scales
out).  The serving layer had no equivalent: every batch staged its B
into whichever cluster happened to run it, so a hot shared-B bucket (the
decode projections of the transformer overload mix) re-staged the same
weight matrix on every dispatch, and under load those batches serialized
behind one another's staging.

:class:`PlacementManager` is the serving-side counterpart.  It tracks
per-bucket traffic by B content digest, **promotes** hot B matrices to
:class:`ReplicaSet`\\ s replicated across several clusters (staging each
replica is charged to that cluster's timeline at the host CPU's DDR
bandwidth in DES time — exactly the multi-cluster replication cost),
**routes** each closed batch to the least-loaded cluster holding a
replica (so the batch skips its B staging entirely), and **demotes**
cold replicas LRU-first when a cluster's replica memory budget is
exceeded.

Contracts:

* ``replicate_b="off"`` constructs no manager at all — the serve loop is
  bit-identical to the pre-placement engine.
* ``replicate_b="adaptive"`` builds the manager from this module's
  constants: a digest is promoted once it has drawn
  :data:`PROMOTE_AFTER` batches, onto at most :data:`MAX_REPLICAS`
  clusters, under a per-cluster :data:`REPLICA_BUDGET_BYTES`.
* Replication changes *where* batches run and what staging they pay,
  never the served bits: results are computed functionally per batch and
  verified against standalone ``ftimm_gemm`` regardless of placement.
* Every promotion, staging copy and demotion lands on the placement
  event timeline (:class:`PlacementReport`); the serve trace's
  ``placement`` instants and the ``serve/placement/*`` metrics are
  derived from that report.
* All decisions are made inside engine event processing — batch close
  and backend binding — which the gateway drives in ``offer()`` order,
  so a live async run replays bit-identical to the pre-drawn stream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..errors import PlanError
from .batcher import BucketKey, bucket_b_bytes, bucket_label

#: the replication modes ``ServeConfig.replicate_b`` accepts.
REPLICATE_MODES = ("off", "adaptive")

#: per-cluster replica memory budget; cold replicas are LRU-demoted to
#: stay under it, and a B larger than it is never promoted
REPLICA_BUDGET_BYTES = 8 << 20
#: clusters each hot B is replicated across (capped at the pool size)
MAX_REPLICAS = 4
#: batches a digest must attract before promotion fires
PROMOTE_AFTER = 2


@dataclass
class ReplicaSet:
    """One B content's replica state: where it lives and how hot it is."""

    digest: str                    # B content digest
    label: str                     # human-readable bucket label
    bytes: int                     # size of one replica
    seq: int                       # creation order (deterministic LRU ties)
    clusters: list[int] = field(default_factory=list)
    batches: int = 0               # batches closed on this digest (traffic)
    last_used_s: float = 0.0
    #: traffic count at which (re-)promotion may fire; bumped after a
    #: full demotion so a just-evicted digest cannot thrash straight back
    promotable_at: int = 1

    @property
    def replicated(self) -> bool:
        return bool(self.clusters)


@dataclass
class PlacementEvent:
    """One promotion/staging/demotion on the simulated timeline."""

    at_s: float
    kind: str                      # promote | stage | demote
    label: str
    cluster: int | None = None
    detail: str = ""

    def describe(self) -> str:
        line = f"t={self.at_s * 1e3:8.3f} ms  {self.kind:<7} {self.label}"
        if self.cluster is not None:
            line += f"  cluster {self.cluster}"
        if self.detail:
            line += f"  ({self.detail})"
        return line


@dataclass
class PlacementReport:
    """What the replication manager did during one serve run."""

    budget_bytes: int
    promotions: int = 0
    demotions: int = 0
    hits: int = 0                  # batches served from a resident replica
    restages: int = 0              # replicated digests run off-holder
    staged_bytes: int = 0
    staged_s: float = 0.0          # total replica-staging time charged
    peak_bytes: list[int] = field(default_factory=list)   # per cluster
    replica_sets: int = 0          # digests ever promoted
    events: list[PlacementEvent] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"placement: {self.replica_sets} replica set(s), "
            f"{self.promotions} promotion(s), {self.demotions} demotion(s)",
            f"  {self.hits} batch(es) skipped B staging, "
            f"{self.restages} re-stage(s) off-holder, "
            f"{self.staged_bytes / 1024:.0f} KiB replicated "
            f"({self.staged_s * 1e6:.1f} us of cluster time)",
            "  peak replica residency per cluster: "
            + ", ".join(
                f"{b / 1024:.0f} KiB" for b in self.peak_bytes
            )
            + f" (budget {self.budget_bytes / 1024:.0f} KiB)",
        ]
        if self.events:
            lines.append("  timeline:")
            lines.extend(f"    {e.describe()}" for e in self.events)
        return "\n".join(lines)


class PlacementManager:
    """Traffic-driven B replication: promote, route, demote.

    One instance per serve run, owned by the engine and consulted by the
    scheduler's binding paths.  Every method is a pure function of the
    deterministic event stream — no wall clock, no randomness — so a
    placement-enabled run replays bit for bit.
    """

    def __init__(
        self,
        *,
        n_clusters: int,
        budget_bytes: int,
        max_replicas: int,
        promote_after: int,
        cpu_bw: float,
    ) -> None:
        self.n_clusters = n_clusters
        self.budget_bytes = budget_bytes
        self.max_replicas = max_replicas
        self.promote_after = promote_after
        self.cpu_bw = cpu_bw
        self.sets: dict[str, ReplicaSet] = {}
        self.bytes_used = [0] * n_clusters
        self.peak_bytes = [0] * n_clusters
        self.events: list[PlacementEvent] = []
        self._ever_promoted: set[str] = set()
        self.hits = 0
        self.restages = 0
        self.staged_bytes = 0
        self.staged_s = 0.0

    # -- event plumbing ----------------------------------------------------

    def _event(
        self,
        at_s: float,
        kind: str,
        label: str,
        cluster: int | None = None,
        detail: str = "",
    ) -> None:
        self.events.append(PlacementEvent(
            at_s=at_s, kind=kind, label=label, cluster=cluster,
            detail=detail,
        ))

    # -- promotion / demotion ----------------------------------------------

    def on_close(
        self, key: BucketKey, sched, now: float
    ) -> list[tuple[int, float, float]]:
        """Account one closed batch; maybe promote its digest.

        Called by the engine at every batch close (the deterministic
        decision point shared by replay and gateway).  Returns the
        replica-staging charges placed on cluster timelines as
        ``(cluster, start_s, end_s)`` tuples so the engine can arm EDF
        free events at the staging ends.
        """
        digest = key[3]
        st = self.sets.get(digest)
        if st is None:
            st = ReplicaSet(
                digest=digest,
                label=bucket_label(key),
                bytes=bucket_b_bytes(key),
                seq=len(self.sets),
                promotable_at=self.promote_after,
            )
            self.sets[digest] = st
        st.batches += 1
        if st.replicated or st.bytes > self.budget_bytes:
            return []
        if st.batches < st.promotable_at:
            return []
        return self._promote(st, sched, now)

    def _promote(
        self, st: ReplicaSet, sched, now: float
    ) -> list[tuple[int, float, float]]:
        """Stage ``st``'s B onto the least-loaded clusters."""
        n_targets = max(1, min(self.max_replicas, self.n_clusters))
        targets = sorted(
            sched.backends, key=lambda b: (b.busy_until_s, b.idx)
        )[:n_targets]
        staged: list[tuple[int, float, float]] = []
        stage_s = st.bytes / self.cpu_bw
        for backend in targets:
            self._evict_for(backend.idx, st.bytes, now, keep=st.digest)
            start = max(now, backend.busy_until_s)
            end = backend.occupy(start, stage_s)
            self.bytes_used[backend.idx] += st.bytes
            self.peak_bytes[backend.idx] = max(
                self.peak_bytes[backend.idx], self.bytes_used[backend.idx]
            )
            st.clusters.append(backend.idx)
            self.staged_bytes += st.bytes
            self.staged_s += stage_s
            staged.append((backend.idx, start, end))
            self._event(
                now, "stage", st.label, backend.idx,
                f"{st.bytes / 1024:.0f} KiB in {stage_s * 1e6:.1f} us",
            )
        st.last_used_s = now
        self._ever_promoted.add(st.digest)
        self._event(
            now, "promote", st.label,
            detail=(
                f"{st.batches} batch(es) -> clusters "
                f"{','.join(str(c) for c in st.clusters)}"
            ),
        )
        return staged

    def _evict_for(
        self, cluster: int, need_bytes: int, now: float, *, keep: object
    ) -> None:
        """LRU-demote replicas on ``cluster`` until ``need_bytes`` fits."""
        while self.bytes_used[cluster] + need_bytes > self.budget_bytes:
            victims = [
                s for s in self.sets.values()
                if cluster in s.clusters and s.digest != keep
            ]
            if not victims:  # pragma: no cover - budget >= need_bytes guard
                raise PlanError(
                    f"cluster {cluster}: replica budget cannot fit "
                    f"{need_bytes} bytes"
                )
            victim = min(victims, key=lambda s: (s.last_used_s, s.seq))
            self._demote(victim, cluster, now, "LRU under budget pressure")

    def _demote(
        self, st: ReplicaSet, cluster: int, now: float, why: str
    ) -> None:
        st.clusters.remove(cluster)
        self.bytes_used[cluster] -= st.bytes
        if not st.clusters:
            # fully evicted: require fresh traffic before re-promotion,
            # so a borderline-hot digest cannot thrash promote/demote
            st.promotable_at = st.batches + self.promote_after
        self._event(now, "demote", st.label, cluster, why)

    # -- routing -----------------------------------------------------------

    def holder_in(self, key: BucketKey, pool):
        """Least-loaded backend in ``pool`` holding ``key``'s replica.

        ``pool`` is the scheduler's routable set (health-filtered), so a
        replica whose only holder is quarantined yields None here and the
        caller falls back to normal binding plus a re-stage.
        """
        st = self.sets.get(key[3])
        if st is None or not st.clusters:
            return None
        holders = [b for b in pool if b.idx in st.clusters]
        if not holders:
            return None
        return min(holders, key=lambda b: (b.busy_until_s, b.idx))

    def use_replica(self, key: BucketKey, cluster: int, now: float) -> bool:
        """Is B resident on ``cluster``?  Called once per bound batch.

        A hit refreshes the replica's LRU stamp and lets the batch skip
        its B staging; a replicated digest bound off-holder (quarantined
        holders, or an EDF pull with no idle holder) counts as a
        re-stage — the batch pays B staging as if unreplicated.
        """
        st = self.sets.get(key[3])
        if st is None or not st.clusters:
            return False
        if cluster in st.clusters:
            st.last_used_s = now
            self.hits += 1
            return True
        self.restages += 1
        return False

    # -- reporting ---------------------------------------------------------

    def report(self) -> PlacementReport:
        kinds = Counter(e.kind for e in self.events)
        return PlacementReport(
            budget_bytes=self.budget_bytes,
            promotions=kinds["promote"],
            demotions=kinds["demote"],
            hits=self.hits,
            restages=self.restages,
            staged_bytes=self.staged_bytes,
            staged_s=self.staged_s,
            peak_bytes=list(self.peak_bytes),
            replica_sets=len(self._ever_promoted),
            events=sorted(self.events, key=lambda e: e.at_s),
        )
