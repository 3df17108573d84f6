"""Structured request/execution tracing with an ambient trace context.

The metrics registry answers "how much, in aggregate"; this module
answers "what happened to *this* request, in order, and under what".  A
:class:`Tracer` collects :class:`TraceSpan` records — named intervals
with ids and parent links forming a tree — carrying **both** clocks:

* ``start_s`` / ``end_s``   — simulated (DES) seconds, the timeline the
  serve loop and the event simulator run on;
* ``wall_start`` / ``wall_end`` — host ``perf_counter`` seconds, so
  host-side phases (tuning, lowering, verification) are costed too.

The contract is the same as the metrics registry's, deliberately:
tracing is **off by default**, instrumented code asks the *ambient*
tracer via :func:`current_tracer` (one global read when disabled), and
enabling it never changes what the simulation computes — a test asserts
serve/GEMM results are bit-identical with tracing on or off.

Enable with::

    with tracing() as tracer:
        report = serve(requests, config)
    tracer.save("trace.json")          # Perfetto / chrome://tracing

The exported JSON is Chrome-trace-event format (``traceEvents`` with
``ph: "X"`` duration and ``ph: "i"`` instant events; ``pid`` = cluster,
``tid`` = core/queue track) plus a full-fidelity ``spans`` list that
:func:`load_spans` round-trips for the critical-path analyzer.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..errors import ReproError
from .profile import merge_intervals

#: sentinel: "parent is whatever scope is ambient on the tracer stack".
AMBIENT = -1

#: the Chrome trace-event phases the exporter emits / validator accepts.
_CHROME_PHASES = {"X", "i", "M", "B", "E", "b", "e", "n", "C"}


@dataclass
class TraceSpan:
    """One named interval in the trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    category: str                  # e.g. "request", "queue", "gemm", "dma"
    start_s: float                 # simulated seconds
    end_s: float
    track: str = "host"            # display row (Chrome tid), e.g. "core0/dma"
    pid: int = 0                   # display process (Chrome pid) = cluster
    wall_start: float = 0.0        # host perf_counter seconds
    wall_end: float = 0.0
    args: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ReproError(
                f"span {self.name!r} ends ({self.end_s}) before it starts "
                f"({self.start_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def wall_s(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def is_instant(self) -> bool:
        return self.end_s == self.start_s and self.wall_end == self.wall_start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "track": self.track,
            "pid": self.pid,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TraceSpan":
        return cls(
            span_id=int(d["span_id"]),
            parent_id=None if d.get("parent_id") is None else int(d["parent_id"]),
            name=str(d["name"]),
            category=str(d["category"]),
            start_s=float(d["start_s"]),
            end_s=float(d["end_s"]),
            track=str(d.get("track", "host")),
            pid=int(d.get("pid", 0)),
            wall_start=float(d.get("wall_start", 0.0)),
            wall_end=float(d.get("wall_end", 0.0)),
            args=dict(d.get("args", {})),
        )


class _Scope:
    """Handle yielded by :meth:`Tracer.scope`; lets the body attach data."""

    __slots__ = ("span_id", "args", "sim_start_s", "sim_end_s")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.args: dict[str, Any] = {}
        #: optional simulated-time extent; scopes without one are placed
        #: as zero-width marks at sim time zero
        self.sim_start_s: float | None = None
        self.sim_end_s: float | None = None


class Tracer:
    """Span collector with an ambient parent stack.

    ``pid`` is the default Chrome process id (= cluster index) for new
    spans.
    """

    def __init__(self) -> None:
        self.spans: list[TraceSpan] = []
        self._next_id = 1
        self._stack: list[int] = []
        self.pid = 0

    # -- id / parent plumbing ----------------------------------------------

    def _alloc(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def _resolve_parent(self, parent: int | None) -> int | None:
        if parent == AMBIENT:
            return self._stack[-1] if self._stack else None
        return parent

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    # -- recording ---------------------------------------------------------

    def record(
        self,
        name: str,
        *,
        category: str = "span",
        start_s: float,
        end_s: float,
        track: str = "host",
        pid: int | None = None,
        parent: int | None = AMBIENT,
        args: dict[str, Any] | None = None,
    ) -> int:
        """Record a completed simulated-time interval; returns its id."""
        sid = self._alloc()
        wall = time.perf_counter()
        self.spans.append(TraceSpan(
            span_id=sid,
            parent_id=self._resolve_parent(parent),
            name=name,
            category=category,
            start_s=start_s,
            end_s=end_s,
            track=track,
            pid=self.pid if pid is None else pid,
            wall_start=wall,
            wall_end=wall,
            args=dict(args or {}),
        ))
        return sid

    def instant(
        self,
        name: str,
        *,
        at_s: float | None = None,
        category: str = "event",
        track: str = "host",
        pid: int | None = None,
        parent: int | None = AMBIENT,
        args: dict[str, Any] | None = None,
    ) -> int:
        """A zero-width mark (Chrome ``ph: "i"``); ``at_s=None`` places it
        at sim time zero."""
        at = 0.0 if at_s is None else at_s
        return self.record(
            name, category=category, start_s=at, end_s=at,
            track=track, pid=pid, parent=parent, args=args,
        )

    @contextmanager
    def scope(
        self,
        name: str,
        *,
        category: str = "phase",
        track: str = "host",
        pid: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> Iterator[_Scope]:
        """Wall-clock scope that becomes the ambient parent of anything
        recorded inside it.  The body may set ``handle.sim_start_s`` /
        ``sim_end_s`` to give the span a simulated-time extent, and add
        to ``handle.args``."""
        sid = self._alloc()
        handle = _Scope(sid)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        w0 = time.perf_counter()
        try:
            yield handle
        finally:
            self._stack.pop()
            w1 = time.perf_counter()
            if handle.sim_start_s is not None and handle.sim_end_s is not None:
                s0, s1 = handle.sim_start_s, handle.sim_end_s
            else:
                s0 = s1 = 0.0
            merged = dict(args or {})
            merged.update(handle.args)
            self.spans.append(TraceSpan(
                span_id=sid,
                parent_id=parent,
                name=name,
                category=category,
                start_s=s0,
                end_s=s1,
                track=track,
                pid=self.pid if pid is None else pid,
                wall_start=w0,
                wall_end=w1,
                args=merged,
            ))

    # -- queries -----------------------------------------------------------

    def children(self, span_id: int) -> list[TraceSpan]:
        return [s for s in self.spans if s.parent_id == span_id]

    def by_category(self, category: str) -> list[TraceSpan]:
        return [s for s in self.spans if s.category == category]

    # -- export ------------------------------------------------------------

    def to_chrome(self, clock: str = "sim") -> dict[str, Any]:
        """Chrome-trace-event dict (Perfetto-loadable), microsecond ts.

        ``clock="sim"`` lays spans out on the simulated timeline (the
        default — the one the paper's claims are about); ``"wall"`` uses
        host time instead, for profiling the harness itself.  The full
        span list rides along under ``"spans"`` (viewers ignore unknown
        top-level keys) so :func:`load_spans` round-trips losslessly.
        """
        if clock not in ("sim", "wall"):
            raise ReproError(f"unknown trace clock {clock!r}")
        return spans_to_chrome(self.spans, clock=clock)

    def save(self, path: str | Path, clock: str = "sim") -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(clock=clock)))
        return path


def spans_to_chrome(
    spans: list[TraceSpan], clock: str = "sim"
) -> dict[str, Any]:
    """Build the Chrome-trace-event dict for a span list."""
    tracks = sorted({(s.pid, s.track) for s in spans})
    tids = {key: i for i, key in enumerate(tracks)}
    events: list[dict[str, Any]] = []
    for pid in sorted({p for p, _ in tracks}):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"cluster{pid - 1}" if pid > 0 else "server"},
        })
    for (pid, track), tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": track},
        })
    for s in spans:
        if clock == "sim":
            ts, dur = s.start_s * 1e6, s.duration_s * 1e6
        else:
            ts, dur = s.wall_start * 1e6, s.wall_s * 1e6
        common = {
            "name": s.name,
            "cat": s.category,
            "pid": s.pid,
            "tid": tids[(s.pid, s.track)],
            "ts": ts,
            "args": {
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "wall_s": s.wall_s,
                **s.args,
            },
        }
        if s.is_instant or (clock == "sim" and dur == 0.0):
            events.append({**common, "ph": "i", "s": "t"})
        else:
            events.append({**common, "ph": "X", "dur": dur})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "spans": [s.to_dict() for s in spans],
    }


def track_busy(spans: list[TraceSpan]) -> dict[str, tuple[int, float, float]]:
    """Per display track, in track order: ``(spans, busy_s, utilization)``.

    Busy time merges overlapping spans (several DMA transfers can be in
    flight on one engine); utilization is busy time over the track's own
    first-start to last-end window.
    """
    by_track: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        by_track.setdefault(s.track, []).append((s.start_s, s.end_s))
    out = {}
    for track, intervals in sorted(by_track.items()):
        busy = merge_intervals(intervals)
        window = max(e for _, e in intervals) - min(s for s, _ in intervals)
        out[track] = (len(intervals), busy,
                      busy / window if window > 0 else 0.0)
    return out


def ascii_timeline(spans: list[TraceSpan], width: int = 72) -> str:
    """Coarse terminal Gantt: one line per track, '#' where busy."""
    if not spans:
        return "(empty trace)"
    t0 = min(s.start_s for s in spans)
    scale = (max(s.end_s for s in spans) - t0) or 1.0
    cells: dict[str, list[str]] = {}
    for s in spans:
        row = cells.setdefault(s.track, [" "] * width)
        lo = int((s.start_s - t0) / scale * (width - 1))
        hi = max(lo, int((s.end_s - t0) / scale * (width - 1)))
        row[lo:hi + 1] = "#" * (hi + 1 - lo)
    name_w = max(map(len, cells))
    lines = [
        f"{track.ljust(name_w)} |{''.join(cells[track])}| {100 * util:5.1f}%"
        for track, (_n, _busy, util) in track_busy(spans).items()
    ]
    lines.append(f"{'':{name_w}}  span: {scale * 1e6:.1f} us")
    return "\n".join(lines)


def validate_chrome_trace(trace: dict[str, Any]) -> None:
    """Raise :class:`~repro.errors.ReproError` unless ``trace`` conforms
    to the Chrome trace-event JSON schema (the subset Perfetto loads)."""
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ReproError("trace: missing top-level 'traceEvents' list")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ReproError("trace: 'traceEvents' is not a list")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ReproError(f"trace: {where} is not an object")
        ph = ev.get("ph")
        if ph not in _CHROME_PHASES:
            raise ReproError(f"trace: {where} has bad phase {ph!r}")
        if not isinstance(ev.get("name"), str):
            raise ReproError(f"trace: {where} missing string 'name'")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                raise ReproError(f"trace: {where} missing int {key!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            raise ReproError(f"trace: {where} missing numeric 'ts'")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ReproError(
                    f"trace: {where} 'X' event needs non-negative 'dur'"
                )
        if ph == "i" and ev.get("s") not in (None, "t", "p", "g"):
            raise ReproError(f"trace: {where} bad instant scope {ev.get('s')!r}")


def load_spans(path: str | Path) -> list[TraceSpan]:
    """Read the full-fidelity span list back from a saved trace file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: invalid trace JSON ({exc})") from None
    if not isinstance(payload, dict) or "spans" not in payload:
        raise ReproError(
            f"{path}: no 'spans' sidecar — not a trace written by repro"
        )
    return [TraceSpan.from_dict(d) for d in payload["spans"]]


#: the ambient tracer; ``None`` means tracing is disabled (default).
_current: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is off (default)."""
    return _current


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as ambient; returns the previous one."""
    global _current
    prev = _current
    _current = tracer
    return prev


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Enable span collection for the dynamic extent of the block."""
    tracer = tracer if tracer is not None else Tracer()
    prev = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(prev)


@contextmanager
def maybe_scope(name: str, **kwargs: Any) -> Iterator[_Scope | None]:
    """A :meth:`Tracer.scope` on the ambient tracer, or a no-op."""
    tracer = current_tracer()
    if tracer is None:
        yield None
    else:
        with tracer.scope(name, **kwargs) as handle:
            yield handle


def head_sample(key: object, rate: float, seed: int = 0) -> bool:
    """Deterministic head-based sampling decision for ``key``.

    Hashes ``key`` (its ``str``) with blake2b and keeps it iff the
    64-bit digest falls below ``rate`` of the hash space — the same key
    yields the same verdict on every host and every run, which is what
    lets a sampled trace replay bit-for-bit.  ``rate >= 1`` keeps
    everything, ``rate <= 0`` drops everything.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.blake2b(
        f"{seed}:{key}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") < rate * 2**64
