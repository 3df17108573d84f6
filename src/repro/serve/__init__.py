"""Online GEMM serving: the request-stream layer over the batched core.

The paper's motivating workloads issue *streams* of small irregular
GEMMs; this package turns the repository's building blocks — grouped
batching (:mod:`repro.core.batched`), four independent GPDSP clusters
(:mod:`repro.core.multi_cluster`'s cost model), cached plans/kernels and
seeded fault injection — into a serving subsystem with throughput and
latency numbers:

* :mod:`repro.serve.request`   — requests, per-request records;
* :mod:`repro.serve.loadgen`   — Poisson/bursty open-loop streams over
  transformer / FEM / convnet shape mixes;
* :mod:`repro.serve.batcher`   — shape-bucketed batching (max-wait /
  max-batch, shared-B via content digest);
* :mod:`repro.serve.scheduler` — per-cluster backends, FIFO /
  least-loaded / EDF policies, bucket warmup;
* :mod:`repro.serve.server`    — the simulated-time serve loop with
  admission control, typed shedding and verified bit-exact responses;
* :mod:`repro.serve.harness`   — offered-load sweeps and the
  saturation-curve experiment (``repro serve`` on the CLI);
* :mod:`repro.serve.slo`       — error-budget / burn-rate SLO monitoring
  over serve records, with typed run-log alerts;
* :mod:`repro.serve.degrade`   — graceful degradation: priority classes,
  burn-driven proactive shedding, cluster quarantine, and the
  serve-level chaos harness;
* :mod:`repro.serve.gateway`   — the live asyncio front-end: streaming
  admission over the same engine, ``await submit(...)`` with typed
  outcomes and a virtual-clock bridge;
* :mod:`repro.serve.placement` — replicated-B placement: traffic-driven
  promotion of hot shared-B matrices to multi-cluster replica sets,
  replica-aware routing, LRU demotion under a memory budget;
* :mod:`repro.serve.spans`     — the simulated-time serve trace, derived
  from a finished report.
"""

from .batcher import Batch, ShapeBucketBatcher, bucket_key, bucket_label
from .degrade import (
    BULK,
    INTERACTIVE,
    DegradeEvent,
    DegradePolicy,
    DegradeReport,
    HealthPolicy,
    PriorityClass,
    ServeChaosReport,
    chaos_serve,
)
from .gateway import Gateway, gateway_replay
from .harness import SweepPoint, SweepResult, sweep
from .loadgen import (
    MIXES,
    ShapeClass,
    get_mix,
    make_requests,
)
from .placement import (
    REPLICATE_MODES,
    PlacementEvent,
    PlacementManager,
    PlacementReport,
    ReplicaSet,
)
from .request import BatchRecord, GemmRequest, RequestRecord
from .scheduler import POLICIES, ClusterBackend, Scheduler, WarmupReport
from .server import ServeConfig, ServeEngine, ServeReport, serve
from .slo import (
    SLO_SCHEMA,
    BurnWindow,
    OnlineBurn,
    SloAlert,
    SloPolicy,
    SloReport,
    monitor,
)
from .spans import serve_spans

__all__ = [
    "BULK",
    "Batch",
    "BatchRecord",
    "BurnWindow",
    "ClusterBackend",
    "DegradeEvent",
    "DegradePolicy",
    "DegradeReport",
    "Gateway",
    "GemmRequest",
    "HealthPolicy",
    "INTERACTIVE",
    "MIXES",
    "OnlineBurn",
    "POLICIES",
    "PlacementEvent",
    "PlacementManager",
    "PlacementReport",
    "PriorityClass",
    "REPLICATE_MODES",
    "ReplicaSet",
    "RequestRecord",
    "SLO_SCHEMA",
    "Scheduler",
    "ServeChaosReport",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "ShapeBucketBatcher",
    "ShapeClass",
    "SloAlert",
    "SloPolicy",
    "SloReport",
    "SweepPoint",
    "SweepResult",
    "WarmupReport",
    "bucket_key",
    "bucket_label",
    "chaos_serve",
    "gateway_replay",
    "get_mix",
    "make_requests",
    "monitor",
    "serve",
    "serve_spans",
    "sweep",
]
