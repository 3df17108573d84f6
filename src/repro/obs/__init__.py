"""Unified observability layer: metrics, tracing, profiling, run-logs.

Four pieces, deliberately dependency-free (only :mod:`repro.errors`):

* :mod:`repro.obs.registry` — hierarchical :class:`MetricsRegistry`
  (counters, gauges, distributions, histograms) and the ambient
  :func:`collecting` context that turns instrumentation on.  A
  wall-clock duration is a distribution fed ``time.perf_counter()``
  differences through the same ``m = current()`` hook.
* :mod:`repro.obs.trace` — structured :class:`Tracer` spans (ids, parent
  links, simulated + wall clocks) behind the ambient :func:`tracing`
  context, with a Chrome-trace-event exporter, per-track busy time and
  a terminal Gantt.
* :mod:`repro.obs.profile` — :class:`RunProfile`, the per-epoch busy-time
  accounting the timed executor fills in, consumed by
  :mod:`repro.analysis.bottleneck`.
* :mod:`repro.obs.runlog` — versioned JSONL run-log records.

Everything is off by default: with no ambient registry/tracer the hooks
reduce to one global read, and simulated results are bit-identical with
observability on or off (a test asserts this).
"""

from .profile import EpochProfile, RunProfile
from .registry import (
    Counter,
    Distribution,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    current,
    set_registry,
)
from .runlog import (
    SCHEMA,
    append_record,
    last_matching,
    make_record,
    read_records,
)
from .trace import (
    TraceSpan,
    Tracer,
    ascii_timeline,
    current_tracer,
    load_spans,
    maybe_scope,
    set_tracer,
    spans_to_chrome,
    track_busy,
    tracing,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Distribution",
    "EpochProfile",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunProfile",
    "SCHEMA",
    "TraceSpan",
    "Tracer",
    "append_record",
    "ascii_timeline",
    "collecting",
    "current",
    "current_tracer",
    "last_matching",
    "load_spans",
    "make_record",
    "maybe_scope",
    "read_records",
    "set_registry",
    "set_tracer",
    "spans_to_chrome",
    "track_busy",
    "tracing",
    "validate_chrome_trace",
]
