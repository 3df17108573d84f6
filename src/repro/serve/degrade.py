"""Graceful degradation: priority classes, proactive shedding, quarantine.

The serve loop's baseline admission control is a single bounded queue —
under overload it sheds whatever arrives at a full queue, regardless of
how much that request mattered.  This module adds the policy layer that
decides *what to lose first* when the world goes wrong, plus the chaos
harness that proves the answer is still correct:

* :class:`PriorityClass` / :class:`DegradePolicy` — ordered admission
  classes (``interactive`` / ``bulk`` by default).  Each class carries a
  per-class admission threshold (``admit_above``: the queue-fill
  fraction above which this class is shed while higher classes still
  get in) and a ``burn_shed`` flag marking it sheddable under SLO
  pressure.  Unlabeled requests are classified by their deadline budget.
* **Burn-driven shedding** — the serve engine feeds outcome events to
  :class:`~repro.serve.slo.OnlineBurn`, the same estimator the post-hoc
  SLO monitor replays, and sheds sheddable classes once the live
  fast-window burn reaches :data:`BURN_THRESHOLD`, *before* the error
  budget is gone.  Deliberate (class/burn) sheds are excluded from the
  estimate — feeding them back would latch shedding on forever; only
  genuine badness (late completions, failures, queue-full drops)
  counts.
* :class:`HealthPolicy` — the per-cluster breaker the scheduler runs:
  ``fault_threshold`` consecutive faulted attempts quarantine a cluster
  for ``cooldown_s`` (exponential backoff up to ``max_cooldown_s``);
  after the cooldown the next routing decision *probes* it — a clean
  batch recovers it, another fault re-quarantines it.
* :func:`chaos_serve` — faults *under load*.  Composes any seeded
  :class:`~repro.faults.plan.FaultPlan` with a request stream and
  asserts the end-to-end contract independently of the server's own
  verification: every completed response bit-identical to a standalone
  ``ftimm_gemm``, every loss carrying a typed reason, and the whole run
  (records, batches, makespan and served C bits) reproducible from the
  seed.

Everything here is deterministic in simulated time: the burn estimator
and the breaker are pure functions of the (seeded) event stream, so a
degraded run replays bit-for-bit like a healthy one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PlanError
from .request import COMPLETED, GemmRequest

# ---------------------------------------------------------------------------
# priority classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorityClass:
    """One admission class.

    ``admit_above`` is the queue-fill fraction at which this class stops
    being admitted (1.0 = only shed at a genuinely full queue, i.e. the
    legacy behavior).  ``burn_shed`` marks the class sheddable when the
    online burn estimate crosses the policy threshold.  ``max_budget_s``
    classifies unlabeled requests: a request whose relative deadline is
    at most this budget belongs to the class (``None`` = catch-all).
    """

    name: str
    admit_above: float = 1.0
    burn_shed: bool = False
    max_budget_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.admit_above <= 1.0:
            raise PlanError(
                f"class {self.name}: admit_above must be in (0, 1]"
            )
        if self.max_budget_s is not None and self.max_budget_s <= 0:
            raise PlanError(f"class {self.name}: max_budget_s must be > 0")


#: tight-SLO work: admitted while the queue has any room, never
#: proactively shed — the class the degradation machinery protects.
INTERACTIVE = PriorityClass(
    "interactive", admit_above=1.0, burn_shed=False,
    max_budget_s=4e-3,
)

#: loose-SLO bulk work: shed first — above 75% queue fill and whenever
#: the burn estimate says the error budget is on fire.
BULK = PriorityClass(
    "bulk", admit_above=0.75, burn_shed=True,
    max_budget_s=None,
)


@dataclass(frozen=True)
class HealthPolicy:
    """Per-cluster breaker: quarantine after faults, probe back after."""

    fault_threshold: int = 2       # consecutive faulted attempts to trip
    cooldown_s: float = 2e-3       # first quarantine duration
    backoff: float = 2.0           # cooldown multiplier per re-quarantine
    max_cooldown_s: float = 1.6e-2

    def __post_init__(self) -> None:
        if self.fault_threshold < 1:
            raise PlanError("fault_threshold must be >= 1")
        if self.cooldown_s <= 0:
            raise PlanError("cooldown_s must be > 0")
        if self.backoff < 1.0:
            raise PlanError("backoff must be >= 1")
        if self.max_cooldown_s < self.cooldown_s:
            raise PlanError("max_cooldown_s must be >= cooldown_s")


@dataclass(frozen=True)
class DegradePolicy:
    """The whole graceful-degradation configuration (hashable).

    ``ServeConfig(degrade=DegradePolicy())`` turns on class-aware
    admission, burn-driven proactive shedding and (unless ``health`` is
    None) cluster quarantine; ``degrade=None`` keeps the serve loop
    bit-identical to the policy-free baseline.
    """

    classes: tuple[PriorityClass, ...] = (INTERACTIVE, BULK)
    health: HealthPolicy | None = HealthPolicy()

    def __post_init__(self) -> None:
        if not self.classes:
            raise PlanError("degrade policy needs at least one class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate class names: {names}")

    def classify(self, req: GemmRequest) -> PriorityClass:
        """The class a request belongs to.

        An explicit ``req.priority`` label wins; otherwise the request's
        relative deadline budget is matched against the classes'
        ``max_budget_s`` in declaration order, falling through to the
        last class (the catch-all — no deadline means bulk).
        """
        if req.priority is not None:
            for cls in self.classes:
                if cls.name == req.priority:
                    return cls
            raise PlanError(
                f"request {req.req_id}: unknown priority "
                f"{req.priority!r} (have "
                f"{', '.join(c.name for c in self.classes)})"
            )
        budget = (
            req.deadline_s - req.arrival_s
            if req.deadline_s is not None else None
        )
        for cls in self.classes:
            if (
                cls.max_budget_s is not None
                and budget is not None
                and budget <= cls.max_budget_s
            ):
                return cls
        return self.classes[-1]


# ---------------------------------------------------------------------------
# burn-driven shedding
# ---------------------------------------------------------------------------

#: live fast-window burn at which ``burn_shed`` classes stop being admitted
#: (below the post-hoc fast alert's 10x, so shedding starts before paging)
BURN_THRESHOLD = 8.0


# ---------------------------------------------------------------------------
# degradation reporting
# ---------------------------------------------------------------------------


@dataclass
class DegradeEvent:
    """One cluster-health transition on the simulated timeline."""

    at_s: float
    cluster: int
    kind: str                      # quarantine | probe | recover
    detail: str = ""

    def describe(self) -> str:
        line = (f"t={self.at_s * 1e3:8.3f} ms  cluster {self.cluster}  "
                f"{self.kind}")
        if self.detail:
            line += f"  ({self.detail})"
        return line


@dataclass
class DegradeReport:
    """What the degradation machinery did during one serve run."""

    shed_queue_full: int = 0
    shed_class: int = 0
    shed_burn: int = 0
    peak_burn: float = 0.0
    faults: int = 0                # faulted dispatch attempts observed
    quarantines: int = 0
    probes: int = 0
    recoveries: int = 0
    shed_by_class: dict[str, int] = field(default_factory=dict)
    events: list[DegradeEvent] = field(default_factory=list)

    @property
    def burn_threshold(self) -> float:
        return BURN_THRESHOLD

    def describe(self) -> str:
        lines = [
            "degradation: "
            f"shed queue_full={self.shed_queue_full} "
            f"class={self.shed_class} burn={self.shed_burn}"
            + (
                " ("
                + ", ".join(
                    f"{name}={n}"
                    for name, n in sorted(self.shed_by_class.items())
                )
                + ")"
                if self.shed_by_class else ""
            ),
            f"  peak online burn {self.peak_burn:.1f}x "
            f"(shed threshold {self.burn_threshold:g}x)",
            f"  cluster health: {self.faults} faulted attempt(s), "
            f"{self.quarantines} quarantine(s), {self.probes} probe(s), "
            f"{self.recoveries} recover(y/ies)",
        ]
        if self.events:
            lines.append("  timeline:")
            lines.extend(f"    {e.describe()}" for e in self.events)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# serve-level chaos harness
# ---------------------------------------------------------------------------


@dataclass
class ServeChaosReport:
    """Outcome of one chaos serve run against the end-to-end contract."""

    report: object                 # the first run's ServeReport
    silent: list[int] = field(default_factory=list)   # corrupted req ids
    untyped: list[int] = field(default_factory=list)  # losses w/o reason
    deterministic: bool | None = None                 # None = not checked
    #: the first run's requests, with the served C written into them
    served: list[GemmRequest] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return (
            not self.silent
            and not self.untyped
            and self.deterministic is not False
        )

    def describe(self) -> str:
        rep = self.report
        lines = [
            f"chaos serve: {rep.n_requests} requests -> "
            f"{rep.completed} completed, {rep.shed} shed, "
            f"{rep.failed} failed ({rep.redispatches} re-dispatches)",
            f"  silent corruptions: {len(self.silent)}"
            + (f" {self.silent}" if self.silent else ""),
            f"  untyped losses: {len(self.untyped)}"
            + (f" {self.untyped}" if self.untyped else ""),
            "  deterministic replay: "
            + {True: "yes", False: "NO", None: "not checked"}[
                self.deterministic
            ],
        ]
        if rep.degrade is not None:
            lines.append(rep.degrade.describe())
        lines.append("  contract: " + ("OK" if self.ok else "VIOLATED"))
        return "\n".join(lines)


def silent_corruptions(
    report, served: list[GemmRequest], pristine: list[GemmRequest],
    *, machine=None,
) -> list[int]:
    """Completed requests whose served C is not the standalone answer.

    ``served`` are the request objects the run wrote its results into,
    ``pristine`` the same requests' A, B and C0 as snapshotted before
    the run.  Each completed response is compared, bit for bit, against
    a fresh fault-free standalone :func:`~repro.core.ftimm.ftimm_gemm`
    of its pristine operands; a mismatch is a **silent corruption**, the
    one outcome the whole fault lineage forbids.
    """
    from ..core.ftimm import ftimm_gemm

    out = {r.req_id: r for r in served}
    ref_of = {r.req_id: r for r in pristine}
    silent = []
    for rec in report.records:
        if rec.status != COMPLETED:
            continue
        p = ref_of[rec.req_id]
        ref = p.c.copy()
        ftimm_gemm(p.shape.m, p.shape.n, p.shape.k, a=p.a, b=p.b, c=ref,
                   machine=machine, timing="none")
        if not np.array_equal(ref, out[rec.req_id].c):
            silent.append(rec.req_id)
    return silent


def _clone_requests(requests: list[GemmRequest]) -> list[GemmRequest]:
    """Fresh request objects with copied operands (serve mutates C)."""
    return [
        GemmRequest(
            req_id=r.req_id,
            arrival_s=r.arrival_s,
            shape=r.shape,
            a=r.a.copy(),
            b=r.b.copy(),
            c=r.c.copy(),
            klass=r.klass,
            deadline_s=r.deadline_s,
            priority=r.priority,
        )
        for r in requests
    ]


def chaos_serve(
    requests: list[GemmRequest],
    config=None,
    *,
    machine=None,
    replay: bool = True,
) -> ServeChaosReport:
    """Run a request stream under faults and audit the contract itself.

    The harness does not trust the server.  It serves clones of
    ``requests`` (which stay pristine) and audits every completed
    response with :func:`silent_corruptions`.  Every non-completed
    request must carry a typed error reason, and with ``replay=True``
    the run is repeated from scratch and the two runs' records, batch
    rows, makespan and served C bit patterns compared exactly.

    Compose any :class:`~repro.faults.plan.FaultPlan`'s bit-flip and
    DMA rates via ``config.faults``, and any load mix via ``requests``
    — the harness is policy-agnostic.
    """
    from .server import ServeConfig, serve

    config = config or ServeConfig()
    if not requests:
        raise PlanError("empty request stream")
    served = _clone_requests(requests)
    report = serve(served, config, machine=machine)
    silent = silent_corruptions(report, served, requests, machine=machine)
    untyped = [
        rec.req_id for rec in report.records
        if rec.status != COMPLETED and not rec.error
    ]

    deterministic: bool | None = None
    if replay:
        again = _clone_requests(requests)
        second = serve(again, config, machine=machine)
        deterministic = (
            report.records == second.records
            and report.batches == second.batches
            and report.makespan_s == second.makespan_s
            and all(
                x.c.tobytes() == y.c.tobytes()
                for x, y in zip(served, again)
            )
        )

    return ServeChaosReport(
        report=report,
        silent=sorted(silent),
        untyped=sorted(untyped),
        deterministic=deterministic,
        served=served,
    )
