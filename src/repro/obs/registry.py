"""Hierarchical metrics registry with a zero-cost disabled default.

Four instrument kinds, named by "/"-separated hierarchical paths
(``"bw/ddr/bytes_served"``, ``"isa/occupancy/vfmac"``):

* :class:`Counter` — monotonically accumulating value (events, bytes).
* :class:`Gauge` — last-set value plus its high-water mark (heap depth).
* :class:`Distribution` — count/total/min/max of observed samples
  (DMA queue waits, achieved IIs, wall-clock durations).
* :class:`Histogram` — fixed log-spaced bins over a positive range with
  p50/p95/p99 summaries (request latencies, batch sizes).

Instrumented code never checks a flag: it asks the *ambient* registry via
:func:`current`, which is ``None`` unless a collection context is active.
Hooks are written as ``m = current(); if m is not None: ...`` so the
disabled path costs one global read — model outputs are bit-identical
either way (verified by a test).  Collection is opted into with::

    with collecting() as reg:
        result = ftimm_gemm(...)
    print(reg.to_json())

Snapshots round-trip through JSON (:meth:`MetricsRegistry.to_json` /
:meth:`MetricsRegistry.from_json`), which is what the JSONL run-log
stores.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from contextlib import contextmanager
from typing import Any, Iterator

from ..errors import ReproError


class Counter:
    """Monotonic accumulator (int or float increments)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-set value; also tracks the high-water mark since creation."""

    __slots__ = ("name", "value", "high")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self.high: float = 0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.high:
            self.high = v

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value, "high": self.high}


class Distribution:
    """Streaming count/total/min/max summary of observed samples."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def add(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "distribution",
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class Histogram:
    """Log-spaced-bin histogram of positive samples with quantiles.

    Bin edges are fixed at construction: ``per_decade`` bins per decade
    from ``10**lo_exp`` to ``10**hi_exp``, plus an underflow and an
    overflow bucket, so two histograms with the same parameters are
    mergeable and snapshots are deterministic.  Quantiles are read from
    the bin boundaries (upper edge of the covering bin, clamped to the
    observed min/max), which bounds the error at one bin width — ~6% per
    sample with the default 4 bins/decade.
    """

    __slots__ = (
        "name", "lo_exp", "hi_exp", "per_decade",
        "edges", "counts", "count", "total", "min", "max",
    )

    def __init__(
        self,
        name: str,
        *,
        lo_exp: int = -7,
        hi_exp: int = 3,
        per_decade: int = 4,
    ) -> None:
        if hi_exp <= lo_exp or per_decade < 1:
            raise ReproError(
                f"histogram {name!r}: bad bin spec "
                f"[1e{lo_exp}, 1e{hi_exp}] x {per_decade}/decade"
            )
        self.name = name
        self.lo_exp = lo_exp
        self.hi_exp = hi_exp
        self.per_decade = per_decade
        n_bins = (hi_exp - lo_exp) * per_decade
        self.edges = [
            10.0 ** (lo_exp + i / per_decade) for i in range(n_bins + 1)
        ]
        # counts[0] is underflow, counts[-1] overflow
        self.counts = [0] * (n_bins + 2)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self.counts[bisect_right(self.edges, v)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1) read off the bin edges."""
        if not 0.0 < q <= 1.0:
            raise ReproError(f"quantile {q} outside (0, 1]")
        if self.count == 0:
            return 0.0
        target = math.ceil(q * self.count)
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                if i == 0:                      # underflow bucket
                    return self.min
                if i == len(self.counts) - 1:   # overflow bucket
                    return self.max
                return min(max(self.edges[i], self.min), self.max)
        return self.max  # pragma: no cover - unreachable

    def percentiles(self) -> dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "lo_exp": self.lo_exp,
            "hi_exp": self.hi_exp,
            "per_decade": self.per_decade,
            "counts": list(self.counts),
            **self.percentiles(),
        }


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "distribution": Distribution,
    "histogram": Histogram,
}


class MetricsRegistry:
    """Name -> instrument map; instruments are created on first use.

    A name is bound to exactly one instrument kind for the registry's
    lifetime; asking for the same name with a different kind raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[
            str, Counter | Gauge | Distribution | Histogram
        ] = {}

    def _get(self, name: str, cls):
        inst = self._metrics.get(name)
        if inst is None:
            inst = cls(name)
            self._metrics[name] = inst
        elif type(inst) is not cls:
            raise ReproError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, requested {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def distribution(self, name: str) -> Distribution:
        return self._get(name, Distribution)

    def histogram(
        self,
        name: str,
        *,
        lo_exp: int = -7,
        hi_exp: int = 3,
        per_decade: int = 4,
    ) -> Histogram:
        """A histogram; bin parameters apply only on first creation."""
        inst = self._metrics.get(name)
        if inst is None:
            inst = Histogram(
                name, lo_exp=lo_exp, hi_exp=hi_exp, per_decade=per_decade
            )
            self._metrics[name] = inst
        elif type(inst) is not Histogram:
            raise ReproError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, requested Histogram"
            )
        return inst

    def histograms(self, prefix: str = "") -> list[Histogram]:
        """All histograms under ``prefix``, sorted by name."""
        return [
            inst
            for name in self.names(prefix)
            if type(inst := self._metrics[name]) is Histogram
        ]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._metrics if n.startswith(prefix))

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s instruments into this registry, in place.

        Kind-aware: counters add; gauges keep the *other* registry's
        last-set value (last-write-wins, the merge being "other happened
        after/elsewhere") and the max of the high-water marks;
        distributions combine count/total and take the
        min/max extremes; histograms require identical bin parameters
        and add bin counts elementwise.  A name bound to different
        instrument kinds in the two registries raises
        :class:`~repro.errors.ReproError`.  Returns ``self`` so worker
        snapshots fold in a loop.
        """
        for name in other.names():
            theirs = other._metrics[name]
            mine = self._metrics.get(name)
            if mine is None:
                if type(theirs) is Histogram:
                    mine = self.histogram(
                        name,
                        lo_exp=theirs.lo_exp,
                        hi_exp=theirs.hi_exp,
                        per_decade=theirs.per_decade,
                    )
                else:
                    mine = self._get(name, type(theirs))
            elif type(mine) is not type(theirs):
                raise ReproError(
                    f"cannot merge metric {name!r}: "
                    f"{type(mine).__name__} vs {type(theirs).__name__}"
                )
            if type(mine) is Counter:
                mine.value += theirs.value
            elif type(mine) is Gauge:
                mine.high = max(mine.high, theirs.high)
                mine.value = theirs.value
            elif type(mine) is Histogram:
                if (
                    mine.lo_exp != theirs.lo_exp
                    or mine.hi_exp != theirs.hi_exp
                    or mine.per_decade != theirs.per_decade
                ):
                    raise ReproError(
                        f"cannot merge histogram {name!r}: bin spec "
                        f"[1e{mine.lo_exp}, 1e{mine.hi_exp}] x "
                        f"{mine.per_decade}/decade vs "
                        f"[1e{theirs.lo_exp}, 1e{theirs.hi_exp}] x "
                        f"{theirs.per_decade}/decade"
                    )
                mine.counts = [
                    a + b for a, b in zip(mine.counts, theirs.counts)
                ]
                mine.count += theirs.count
                mine.total += theirs.total
                mine.min = min(mine.min, theirs.min)
                mine.max = max(mine.max, theirs.max)
            else:  # Distribution
                mine.count += theirs.count
                mine.total += theirs.total
                mine.min = min(mine.min, theirs.min)
                mine.max = max(mine.max, theirs.max)
        return self

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-able ``{name: {"type": ..., ...}}``, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    @classmethod
    def from_snapshot(cls, snap: dict[str, dict[str, Any]]) -> "MetricsRegistry":
        reg = cls()
        for name, payload in snap.items():
            kind = payload.get("type")
            if kind not in _KINDS:
                raise ReproError(f"unknown metric type {kind!r} for {name!r}")
            if kind == "histogram":
                inst = reg.histogram(
                    name,
                    lo_exp=int(payload["lo_exp"]),
                    hi_exp=int(payload["hi_exp"]),
                    per_decade=int(payload["per_decade"]),
                )
                counts = [int(c) for c in payload["counts"]]
                if len(counts) != len(inst.counts):
                    raise ReproError(
                        f"histogram {name!r}: {len(counts)} bin counts for "
                        f"{len(inst.counts)} bins"
                    )
                inst.counts = counts
                inst.count = int(payload["count"])
                inst.total = float(payload["total"])
                inst.min = payload["min"] if payload["min"] is not None else math.inf
                inst.max = payload["max"] if payload["max"] is not None else -math.inf
                continue
            inst = reg._get(name, _KINDS[kind])
            if kind == "counter":
                inst.inc(payload["value"])
            elif kind == "gauge":
                inst.set(payload["high"])
                inst.set(payload["value"])
            else:
                inst.count = int(payload["count"])
                inst.total = float(payload["total"])
                inst.min = payload["min"] if payload["min"] is not None else math.inf
                inst.max = payload["max"] if payload["max"] is not None else -math.inf
        return reg

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        return cls.from_snapshot(json.loads(text))


#: the ambient registry; ``None`` means observability is disabled.
_current: MetricsRegistry | None = None


def current() -> MetricsRegistry | None:
    """The active registry, or ``None`` when collection is off (default)."""
    return _current


def set_registry(reg: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``reg`` as the ambient registry; returns the previous one."""
    global _current
    prev = _current
    _current = reg
    return prev


@contextmanager
def collecting(reg: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Enable metrics collection for the dynamic extent of the block."""
    reg = reg if reg is not None else MetricsRegistry()
    prev = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(prev)
