"""SLO monitoring over serve records: error budgets and burn-rate alerts.

SRE-style monitoring on the simulated timeline.  An :class:`SloPolicy`
states an objective (fraction of requests that must be *good*: completed
and inside their deadline) and a set of :class:`BurnWindow`\\ s.  The
monitor replays a serve run's request records as a time-ordered event
stream and, per window, tracks the **burn rate** — the rate the error
budget is being consumed, normalized so burn 1.0 exhausts the budget
exactly at the objective::

    burn = bad_fraction_in_window / (1 - objective)

Each window is one :class:`OnlineBurn`, the estimator the serve engine
also runs live for burn-driven shedding.  It counts the events in
``(t - window_s, t]``, so an event exactly ``window_s`` old has left the
window.  The monitor adds the events in time order and reads the burn
after each one.  A window whose burn rate crosses its threshold fires
one typed :class:`SloAlert` (first crossing only — the alert marks the
onset, the report carries the peak over all reads).  The classic
fast/slow pairing applies: the fast window catches a cliff within
milliseconds of simulated time, the slow window catches a smolder the
fast one would flap on.

Everything is a pure function of the records, so alerts are exactly as
deterministic as the serve run itself — the claims gate asserts the
overload mix fires and the light mix never does.  Alerts append to the
JSONL run-log under their own schema (``repro-slo/1``); ``repro-perf/1``
readers skip them by design.
"""

from __future__ import annotations

import time
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import PlanError
from ..obs.runlog import append_record
from .request import COMPLETED, RequestRecord

SLO_SCHEMA = "repro-slo/1"


@dataclass(frozen=True)
class BurnWindow:
    """One sliding burn-rate window with an alerting threshold."""

    name: str
    window_s: float
    threshold: float               # fire when burn >= threshold
    severity: str = "page"         # "page" | "ticket"

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise PlanError(f"window {self.name!r}: window_s must be > 0")
        if self.threshold <= 0:
            raise PlanError(f"window {self.name!r}: threshold must be > 0")


@dataclass(frozen=True)
class SloPolicy:
    """Objective + windows; defaults tuned for the serve harness scales.

    The default objective (99% good) with a 10x fast burn means alerting
    requires >= 10% of a window's requests to be bad — a real cliff, not
    one straggler; ``min_events`` keeps a nearly-empty window from
    firing off a single early failure.
    """

    objective: float = 0.99
    windows: tuple[BurnWindow, ...] = (
        BurnWindow("fast", window_s=5e-3, threshold=10.0, severity="page"),
        BurnWindow("slow", window_s=5e-2, threshold=4.0, severity="ticket"),
    )
    min_events: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise PlanError("objective must be in (0, 1)")
        if not self.windows:
            raise PlanError("policy needs at least one burn window")
        if self.min_events < 1:
            raise PlanError("min_events must be >= 1")
        names = [w.name for w in self.windows]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate window names: {names}")

    @property
    def budget(self) -> float:
        """The error budget: tolerable bad fraction (1 - objective)."""
        return 1.0 - self.objective


class OnlineBurn:
    """Sliding-window burn-rate estimator over ``(now - window_s, now]``.

    Outcome events may be added in any order: the serve engine feeds
    finish times as the simulated run produces them, which is out of
    order relative to admissions.  :meth:`burn_at` uses only the events
    added so far at or before ``now``, so admission decisions never see
    the future.  ``burn = bad_fraction_in_window / (1 - objective)``,
    with a ``min_events`` guard so one early failure cannot trip
    shedding.  ``peak`` is the highest burn read after any :meth:`add`.
    """

    def __init__(
        self, *, objective: float, window_s: float, min_events: int
    ) -> None:
        self.budget = 1.0 - objective
        self.window_s = window_s
        self.min_events = min_events
        self._times: list[float] = []      # all outcome events, sorted
        self._bad: list[float] = []        # bad outcome events, sorted
        self.peak = 0.0

    @classmethod
    def fast_window(cls) -> OnlineBurn:
        """The estimator the serve engine runs: :class:`SloPolicy`'s
        default objective, ``fast`` window and ``min_events``."""
        slo = SloPolicy()
        fast = next(w for w in slo.windows if w.name == "fast")
        return cls(
            objective=slo.objective, window_s=fast.window_s,
            min_events=slo.min_events,
        )

    def add(self, at_s: float, bad: bool) -> float:
        """Add one outcome event; returns the burn read at ``at_s``."""
        insort(self._times, at_s)
        if bad:
            insort(self._bad, at_s)
        burn = self.burn_at(at_s)
        if burn > self.peak:
            self.peak = burn
        return burn

    def counts(self, now: float) -> tuple[int, int]:
        """``(bad, total)`` events in ``(now - window_s, now]``."""
        lo = now - self.window_s
        total = bisect_right(self._times, now) - bisect_right(self._times, lo)
        bad = bisect_right(self._bad, now) - bisect_right(self._bad, lo)
        return bad, total

    def burn_at(self, now: float) -> float:
        """The live burn estimate over ``(now - window_s, now]``."""
        bad, total = self.counts(now)
        if total < self.min_events:
            return 0.0
        return (bad / total) / self.budget


@dataclass(frozen=True)
class SloAlert:
    """One burn-rate threshold crossing (the onset event)."""

    window: str
    severity: str
    at_s: float                    # simulated time of the crossing
    burn: float
    threshold: float
    bad: int
    total: int
    objective: float

    def describe(self) -> str:
        return (
            f"[{self.severity}] {self.window} burn {self.burn:.1f}x "
            f">= {self.threshold:.1f}x at t={self.at_s * 1e3:.3f} ms "
            f"({self.bad}/{self.total} bad, objective "
            f"{self.objective * 100:.1f}%)"
        )

    def to_record(self) -> dict[str, Any]:
        return {
            "schema": SLO_SCHEMA,
            "ts": time.time(),
            "kind": "slo_alert",
            "window": self.window,
            "severity": self.severity,
            "at_s": self.at_s,
            "burn": self.burn,
            "threshold": self.threshold,
            "bad": self.bad,
            "total": self.total,
            "objective": self.objective,
        }


@dataclass
class SloReport:
    """Outcome of monitoring one serve run against a policy."""

    policy: SloPolicy
    n_events: int
    bad_events: int
    alerts: list[SloAlert] = field(default_factory=list)
    peak_burn: dict[str, float] = field(default_factory=dict)

    @property
    def bad_fraction(self) -> float:
        return self.bad_events / self.n_events if self.n_events else 0.0

    @property
    def budget_consumed(self) -> float:
        """Run-wide budget consumption (1.0 = exactly at the objective)."""
        return self.bad_fraction / self.policy.budget

    @property
    def ok(self) -> bool:
        return not self.alerts

    def render(self) -> str:
        lines = [
            f"SLO objective {self.policy.objective * 100:.1f}%: "
            f"{self.bad_events}/{self.n_events} bad "
            f"({self.budget_consumed * 100:.0f}% of error budget)",
        ]
        for w in self.policy.windows:
            lines.append(
                f"  window {w.name} ({w.window_s * 1e3:g} ms): peak burn "
                f"{self.peak_burn.get(w.name, 0.0):.1f}x "
                f"(threshold {w.threshold:g}x)"
            )
        if self.alerts:
            lines.append(f"  {len(self.alerts)} alert(s):")
            lines.extend(f"    {a.describe()}" for a in self.alerts)
        else:
            lines.append("  no alerts")
        return "\n".join(lines)

    def append_to_runlog(self, path: str | Path) -> int:
        """Append one ``repro-slo/1`` record per alert; returns the count."""
        for alert in self.alerts:
            append_record(path, alert.to_record())
        return len(self.alerts)


def _event_time(rec: RequestRecord | Any) -> float:
    finish = getattr(rec, "finish_s", None)
    return finish if finish is not None else rec.arrival_s


def _is_bad(rec: RequestRecord | Any) -> bool:
    """Shed and failed requests are bad; completed ones are bad only when
    they blew a deadline they had."""
    if rec.status != COMPLETED:
        return True
    return rec.deadline_met is False


def monitor(
    records: list[RequestRecord],
    policy: SloPolicy | None = None,
) -> SloReport:
    """Run burn-rate monitoring over one serve run's request records.

    Events are placed at each request's outcome time (finish, or arrival
    for shed requests) and replayed in time order through one
    :class:`OnlineBurn` per window, reading the burn after every event.
    Pure and deterministic — same records, same alerts.
    """
    policy = policy or SloPolicy()
    if not records:
        raise PlanError("no records to monitor")
    events = sorted(
        ((_event_time(r), _is_bad(r)) for r in records),
        key=lambda e: e[0],
    )
    report = SloReport(
        policy=policy,
        n_events=len(events),
        bad_events=sum(1 for _t, bad in events if bad),
    )
    for w in policy.windows:
        est = OnlineBurn(
            objective=policy.objective, window_s=w.window_s,
            min_events=policy.min_events,
        )
        fired = False
        for t, bad in events:
            burn = est.add(t, bad)
            if not fired and burn >= w.threshold:
                fired = True
                bad_in, total = est.counts(t)
                report.alerts.append(SloAlert(
                    window=w.name,
                    severity=w.severity,
                    at_s=t,
                    burn=burn,
                    threshold=w.threshold,
                    bad=bad_in,
                    total=total,
                    objective=policy.objective,
                ))
        report.peak_burn[w.name] = est.peak
    report.alerts.sort(key=lambda a: (a.at_s, a.window))
    return report
