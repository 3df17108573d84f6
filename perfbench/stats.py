"""Order statistics the benchmark reports, in one place.

Quantiles use the exact nearest-rank rule of ``ServeReport.latency_quantile``
(index ``ceil(q * n) - 1``), so a benchmark p99 and a ``repro serve`` p99
over the same records agree to the bit.
"""

from __future__ import annotations

import math
import statistics

#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def quantile(values, q: float) -> float:
    """Exact nearest-rank q-quantile; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank q-quantile of n samples."""
    return n - max(1, math.ceil(q * n)) if n else 0


def tail_ok(n: int, q: float) -> bool:
    """Whether the q-quantile of n samples has ``MIN_BEYOND`` samples past it."""
    return beyond(n, q) >= MIN_BEYOND


def tail_segments(paths, q: float) -> dict[str, float]:
    """Mean segments of the ``(latency, segments)`` paths at or above the
    nearest-rank q-quantile latency: ``critical_path``'s tail rule."""
    if not paths:
        return {}
    cut = quantile([latency for latency, _ in paths], q)
    tail = [segments for latency, segments in paths if latency >= cut]
    return {s: sum(t[s] for t in tail) / len(tail) for s in tail[0]}


def run_value(pass_values) -> float:
    """A run's figure for a host-clock metric: the median over its passes,
    so one burst on a shared machine does not decide the run."""
    values = list(pass_values)
    if not values:
        raise ValueError("a run needs at least one pass")
    return statistics.median(values)


def spread(values) -> float:
    """Run-to-run spread: interquartile distance over the median."""
    values = list(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
