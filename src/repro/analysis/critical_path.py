"""Per-request critical-path attribution over serve records or traces.

Answers the question aggregate histograms cannot: *where did the p99
request's latency actually go?*  Each completed request's recorded
latency is decomposed into named segments —

* ``queue``  — arrival until its bucket closed into a batch;
* ``batch``  — bucket close until the scheduler started the batch;
* ``tune``   — modeled cold plan-search penalty charged to its batch;
* ``stage``  — host-mediated operand staging into the cluster;
* ``retry``  — simulated time lost to failed fault-injected attempts;
* ``gemm``   — the stacked GEMM itself

— and the dominant segment is named per request and for the tail.  The
first two come from the request record; the last four from the batch
record the request was coalesced into (every member experiences the whole
batch span, so segments carry their full values).  By the serve loop's
accounting identity ``latency = queue + batch + compute`` and
``compute = tune + stage + retry + gemm``, coverage is exact up to
float rounding — the acceptance bar is >= 95%.

Inputs are duck-typed (attributes or dict keys), so this module reads
:class:`~repro.serve.request.RequestRecord` /
:class:`~repro.serve.request.BatchRecord` objects, their dict form from
a JSONL run-log, or the span sidecar of a saved trace file
(:func:`from_spans`) interchangeably — and imports nothing from
:mod:`repro.serve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..errors import InputError
from .tables import format_table

#: segment order: the display / tie-breaking convention everywhere.
SEGMENTS = ("queue", "batch", "tune", "stage", "retry", "gemm")

_COMPLETED = "completed"


def _get(obj: Any, name: str, default: Any = None) -> Any:
    if isinstance(obj, dict):
        return obj.get(name, default)
    return getattr(obj, name, default)


@dataclass
class RequestPath:
    """One completed request's latency, decomposed into segments."""

    req_id: int
    klass: str
    latency_s: float
    segments: dict[str, float]
    batch_id: int | None = None
    cluster: int | None = None

    @property
    def covered_s(self) -> float:
        return sum(self.segments.values())

    @property
    def coverage(self) -> float:
        """Fraction of the recorded latency the named segments explain."""
        if self.latency_s <= 0:
            return 1.0
        return self.covered_s / self.latency_s

    @property
    def dominant(self) -> str:
        """The largest segment (earliest in SEGMENTS order on ties)."""
        return max(
            SEGMENTS, key=lambda s: (self.segments.get(s, 0.0), -SEGMENTS.index(s))
        )


@dataclass
class CriticalPathReport:
    """Critical-path decomposition of a serve run."""

    paths: list[RequestPath]
    quantile: float = 0.99
    #: requests at or above the latency quantile
    tail: list[RequestPath] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.paths)

    @property
    def min_coverage(self) -> float:
        return min((p.coverage for p in self.paths), default=1.0)

    def tail_latency_s(self) -> float:
        if not self.tail:
            return 0.0
        return min(p.latency_s for p in self.tail)

    def tail_segments(self) -> dict[str, float]:
        """Mean seconds per segment across the tail requests."""
        if not self.tail:
            return {s: 0.0 for s in SEGMENTS}
        return {
            s: sum(p.segments.get(s, 0.0) for p in self.tail) / len(self.tail)
            for s in SEGMENTS
        }

    @property
    def tail_dominant(self) -> str:
        """The segment that dominates the tail, on average."""
        segs = self.tail_segments()
        return max(SEGMENTS, key=lambda s: (segs[s], -SEGMENTS.index(s)))

    def render(self) -> str:
        segs = self.tail_segments()
        total = sum(segs.values()) or 1.0
        rows = [
            [s, f"{segs[s] * 1e3:.4f}", f"{100.0 * segs[s] / total:.1f}%"]
            for s in SEGMENTS
        ]
        table = format_table(["segment", "tail mean (ms)", "share"], rows)
        head = (
            f"critical path over {self.n_requests} completed requests "
            f"(tail: {len(self.tail)} at/above "
            f"p{int(self.quantile * 100)} = "
            f"{self.tail_latency_s() * 1e3:.4f} ms)"
        )
        foot = (
            f"dominant tail segment: {self.tail_dominant}  "
            f"(min request coverage {self.min_coverage * 100:.2f}%)"
        )
        return "\n".join([head, table, foot])

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_requests": self.n_requests,
            "quantile": self.quantile,
            "tail_n": len(self.tail),
            "tail_latency_s": self.tail_latency_s(),
            "tail_segments_s": self.tail_segments(),
            "dominant": self.tail_dominant,
            "min_coverage": self.min_coverage,
        }


def critical_path(
    records: list[Any],
    batches: list[Any],
    *,
    quantile: float = 0.99,
) -> CriticalPathReport:
    """Decompose completed requests' latencies into named segments.

    ``records`` / ``batches`` are request and batch records — objects or
    dicts carrying the serve schema's fields.
    """
    _check_quantile(quantile)
    by_batch = {_get(b, "batch_id"): b for b in batches}
    paths = []
    for rec in records:
        if _get(rec, "status") != _COMPLETED:
            continue
        finish = _get(rec, "finish_s")
        arrival = _get(rec, "arrival_s")
        if finish is None or arrival is None:
            raise InputError(
                f"request {_get(rec, 'req_id')!r}: missing arrival/finish"
            )
        segments = {
            "queue": float(_get(rec, "queue_s") or 0.0),
            "batch": float(_get(rec, "batch_s") or 0.0),
            "tune": 0.0,
            "stage": 0.0,
            "retry": 0.0,
            "gemm": 0.0,
        }
        batch_id = _get(rec, "batch_id")
        batch = by_batch.get(batch_id)
        if batch is not None:
            segments["tune"] = float(_get(batch, "tune_s") or 0.0)
            segments["stage"] = float(_get(batch, "stage_s") or 0.0)
            segments["retry"] = float(_get(batch, "lost_s") or 0.0)
            segments["gemm"] = float(_get(batch, "gemm_s") or 0.0)
        else:
            # no batch row (older record): the lump-sum compute segment
            # still covers the latency, attributed to gemm
            segments["gemm"] = float(_get(rec, "compute_s") or 0.0)
        paths.append(RequestPath(
            req_id=int(_get(rec, "req_id")),
            klass=str(_get(rec, "klass", "")),
            latency_s=float(finish) - float(arrival),
            segments=segments,
            batch_id=batch_id,
            cluster=_get(rec, "cluster"),
        ))
    paths.sort(key=lambda p: p.req_id)
    return CriticalPathReport(
        paths=paths, quantile=quantile, tail=_tail(paths, quantile)
    )


def _check_quantile(quantile: float) -> None:
    if not 0.0 < quantile <= 1.0:
        raise InputError(f"quantile {quantile} outside (0, 1]")


def _tail(paths: list[RequestPath], quantile: float) -> list[RequestPath]:
    """Requests at/above the exact latency quantile (ServeReport's rule)."""
    if not paths:
        return []
    by_lat = sorted(paths, key=lambda p: p.latency_s)
    idx = min(
        len(by_lat) - 1, max(0, math.ceil(quantile * len(by_lat)) - 1)
    )
    cut = by_lat[idx].latency_s
    return [p for p in paths if p.latency_s >= cut]


def _mean_segments(tail: list[RequestPath]) -> dict[str, float]:
    if not tail:
        return {s: 0.0 for s in SEGMENTS}
    return {
        s: sum(p.segments.get(s, 0.0) for p in tail) / len(tail)
        for s in SEGMENTS
    }


@dataclass
class CriticalPathDiff:
    """Two runs' tail decompositions, segment by segment.

    The cross-run counterpart of :meth:`CriticalPathReport.render`: for
    each requested quantile, the mean per-segment seconds across run A's
    and run B's latency tails, and their delta (B minus A) — so a
    scheduler change reads as "batch-wait p99 shrank, gemm unchanged"
    instead of two opaque latency numbers.
    """

    quantiles: tuple[float, ...]
    n_requests: tuple[int, int]
    #: per quantile: {segment: mean tail seconds} for each run
    tails_a: dict[float, dict[str, float]]
    tails_b: dict[float, dict[str, float]]
    tail_latency_a: dict[float, float]
    tail_latency_b: dict[float, float]

    def delta(self, quantile: float) -> dict[str, float]:
        """Per-segment B - A at ``quantile`` (negative = B got faster)."""
        a, b = self.tails_a[quantile], self.tails_b[quantile]
        return {s: b[s] - a[s] for s in SEGMENTS}

    @property
    def dominant_shift(self) -> str:
        """The segment whose tail changed most at the highest quantile."""
        d = self.delta(max(self.quantiles))
        return max(SEGMENTS, key=lambda s: (abs(d[s]), -SEGMENTS.index(s)))

    def verdict(self) -> str:
        q = max(self.quantiles)
        seg = self.dominant_shift
        d = self.delta(q)[seg]
        if d == 0.0:
            return f"p{int(q * 100)} tail unchanged"
        direction = "grew" if d > 0 else "shrank"
        return (
            f"{seg} p{int(q * 100)} {direction} by {abs(d) * 1e3:.4f} ms "
            f"(A {self.tails_a[q][seg] * 1e3:.4f} -> "
            f"B {self.tails_b[q][seg] * 1e3:.4f})"
        )

    def render(self) -> str:
        headers = ["segment"]
        for q in self.quantiles:
            p = f"p{int(q * 100)}"
            headers += [f"A {p} (ms)", f"B {p} (ms)", f"d{p} (ms)"]
        rows = []
        for s in SEGMENTS:
            row = [s]
            for q in self.quantiles:
                a = self.tails_a[q][s]
                b = self.tails_b[q][s]
                row += [
                    f"{a * 1e3:.4f}", f"{b * 1e3:.4f}",
                    f"{(b - a) * 1e3:+.4f}",
                ]
            rows.append(row)
        head = (
            f"critical-path diff: A={self.n_requests[0]} vs "
            f"B={self.n_requests[1]} completed requests; tail latency "
            + ", ".join(
                f"p{int(q * 100)} {self.tail_latency_a[q] * 1e3:.4f} -> "
                f"{self.tail_latency_b[q] * 1e3:.4f} ms"
                for q in self.quantiles
            )
        )
        return "\n".join([head, format_table(headers, rows),
                          f"verdict: {self.verdict()}"])

    def to_dict(self) -> dict[str, Any]:
        return {
            "quantiles": list(self.quantiles),
            "n_requests": list(self.n_requests),
            "tails_a": {str(q): self.tails_a[q] for q in self.quantiles},
            "tails_b": {str(q): self.tails_b[q] for q in self.quantiles},
            "tail_latency_a": {
                str(q): self.tail_latency_a[q] for q in self.quantiles
            },
            "tail_latency_b": {
                str(q): self.tail_latency_b[q] for q in self.quantiles
            },
            "deltas": {
                str(q): self.delta(q) for q in self.quantiles
            },
            "dominant_shift": self.dominant_shift,
            "verdict": self.verdict(),
        }


def diff_critical_paths(
    a: CriticalPathReport,
    b: CriticalPathReport,
    *,
    quantiles: tuple[float, ...] = (0.50, 0.99),
) -> CriticalPathDiff:
    """Diff two runs' critical-path tail decompositions.

    Tails are recomputed from each report's paths at every requested
    quantile (the reports' own construction quantile is irrelevant), so
    one report diffs at p50 and p99 in a single call.
    """
    if not quantiles:
        raise InputError("need at least one quantile to diff at")
    for q in quantiles:
        _check_quantile(q)
    quantiles = tuple(sorted(quantiles))
    tails_a: dict[float, dict[str, float]] = {}
    tails_b: dict[float, dict[str, float]] = {}
    lat_a: dict[float, float] = {}
    lat_b: dict[float, float] = {}
    for q in quantiles:
        ta, tb = _tail(a.paths, q), _tail(b.paths, q)
        tails_a[q] = _mean_segments(ta)
        tails_b[q] = _mean_segments(tb)
        lat_a[q] = min((p.latency_s for p in ta), default=0.0)
        lat_b[q] = min((p.latency_s for p in tb), default=0.0)
    return CriticalPathDiff(
        quantiles=quantiles,
        n_requests=(a.n_requests, b.n_requests),
        tails_a=tails_a,
        tails_b=tails_b,
        tail_latency_a=lat_a,
        tail_latency_b=lat_b,
    )


def from_spans(spans: list[Any], *, quantile: float = 0.99) -> CriticalPathReport:
    """Reconstruct the decomposition from a trace's span sidecar.

    Request root spans (category ``"request"``) provide latency and the
    queue / batch-wait children; batch spans (category ``"batch"``)
    provide tune/stage/retry/gemm via their children, joined on the
    ``batch_id`` arg.
    """
    _check_quantile(quantile)
    batch_segs: dict[int, dict[str, float]] = {}
    for s in spans:
        if _get(s, "category") == "batch":
            bid = _get(s, "args", {}).get("batch_id")
            if bid is not None:
                batch_segs[int(bid)] = {}
    for s in spans:
        cat = _get(s, "category")
        if cat in ("tune", "stage", "retry", "gemm"):
            bid = _get(s, "args", {}).get("batch_id")
            if bid is not None and int(bid) in batch_segs:
                seg = batch_segs[int(bid)]
                dur = float(_get(s, "end_s")) - float(_get(s, "start_s"))
                seg[cat] = seg.get(cat, 0.0) + dur

    req_children: dict[int, dict[str, float]] = {}
    for s in spans:
        if _get(s, "category") in ("queue", "batch-wait"):
            rid = _get(s, "args", {}).get("req_id")
            if rid is None:
                continue
            name = "queue" if _get(s, "category") == "queue" else "batch"
            dur = float(_get(s, "end_s")) - float(_get(s, "start_s"))
            req_children.setdefault(int(rid), {})[name] = dur

    paths = []
    for s in spans:
        if _get(s, "category") != "request":
            continue
        args = _get(s, "args", {})
        if args.get("status") != _COMPLETED:
            continue
        rid = int(args["req_id"])
        bid = args.get("batch_id")
        segments = {name: 0.0 for name in SEGMENTS}
        segments.update(req_children.get(rid, {}))
        if bid is not None:
            segments.update(batch_segs.get(int(bid), {}))
        paths.append(RequestPath(
            req_id=rid,
            klass=str(args.get("klass", "")),
            latency_s=float(_get(s, "end_s")) - float(_get(s, "start_s")),
            segments=segments,
            batch_id=bid,
            cluster=args.get("cluster"),
        ))
    if not paths:
        raise InputError("trace contains no completed request spans")
    paths.sort(key=lambda p: p.req_id)
    return CriticalPathReport(
        paths=paths, quantile=quantile, tail=_tail(paths, quantile)
    )
