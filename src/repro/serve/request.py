"""The request/response model of the online serving layer.

A :class:`GemmRequest` is one ``C += A @ B`` a client submitted at a
simulated ``arrival_s``, optionally carrying an absolute latency
``deadline_s`` (its SLO).  The server answers every admitted request with
a :class:`RequestRecord` — a completed result, a typed shed, or a typed
failure; there is no fourth outcome and no silent drop.

Records decompose latency the way a serving stack accumulates it:

* ``queue_s``  — arrival until the request's batch *closed* (batching
  wait under the max-wait/max-batch policy);
* ``batch_s``  — batch close until execution *started* on a cluster
  (scheduling / backend-queue wait);
* ``compute_s`` — execution span on the cluster (staging + any cold-tune
  penalty + the grouped GEMM itself, plus time lost to fault retries).

``latency_s = queue_s + batch_s + compute_s`` for completed requests.
All times are simulated seconds; nothing in a record depends on the wall
clock, which is what makes serve runs replayable bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.shapes import GemmShape
from ..errors import InputError, ShapeError

#: the three terminal request states.
COMPLETED = "completed"
SHED = "shed"
FAILED = "failed"


@dataclass(eq=False)
class GemmRequest:
    """One in-flight GEMM with its operands and SLO."""

    req_id: int
    arrival_s: float
    shape: GemmShape
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    klass: str = "gemm"
    deadline_s: float | None = None
    #: explicit priority-class label ("interactive" / "bulk"); ``None``
    #: lets the degradation policy classify by deadline budget
    priority: str | None = None

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            operand = getattr(self, name)
            if not isinstance(operand, np.ndarray):
                raise InputError(
                    f"{name.upper()} must be a numpy array, "
                    f"got {type(operand).__name__}"
                )
        if self.a.shape != (self.shape.m, self.shape.k):
            raise ShapeError(f"A {self.a.shape} != {self.shape}")
        if self.b.shape != (self.shape.k, self.shape.n):
            raise ShapeError(f"B {self.b.shape} != {self.shape}")
        if self.c.shape != (self.shape.m, self.shape.n):
            raise ShapeError(f"C {self.c.shape} != {self.shape}")


@dataclass
class RequestRecord:
    """The server's answer for one request (always produced)."""

    req_id: int
    klass: str
    shape: str
    arrival_s: float
    status: str                    # completed | shed | failed
    queue_s: float = 0.0
    batch_s: float = 0.0
    compute_s: float = 0.0
    finish_s: float | None = None
    deadline_s: float | None = None
    deadline_met: bool | None = None
    batch_id: int | None = None
    batch_size: int | None = None
    cluster: int | None = None
    error: str | None = None
    #: priority class the degradation policy assigned (None = no policy)
    priority: str | None = None
    #: typed shed reason: queue_full | class_shed | burn_shed
    shed_reason: str | None = None

    @property
    def latency_s(self) -> float | None:
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    def as_row(self) -> list[object]:
        """One deterministic table row (used by the latency table)."""
        lat = self.latency_s
        return [
            self.req_id,
            self.klass,
            self.shape,
            f"{self.arrival_s * 1e3:.3f}",
            self.status,
            f"{self.queue_s * 1e3:.3f}" if self.status == COMPLETED else "-",
            f"{self.batch_s * 1e3:.3f}" if self.status == COMPLETED else "-",
            f"{self.compute_s * 1e3:.3f}" if self.status == COMPLETED else "-",
            f"{lat * 1e3:.3f}" if lat is not None else "-",
            {True: "yes", False: "MISS", None: "-"}[self.deadline_met],
            self.batch_size if self.batch_size is not None else "-",
            self.cluster if self.cluster is not None else "-",
        ]


LATENCY_TABLE_HEADERS = [
    "req", "class", "shape", "arrive (ms)", "status",
    "queue (ms)", "batch (ms)", "compute (ms)", "latency (ms)",
    "SLO", "batch size", "cluster",
]


@dataclass
class BatchRecord:
    """One dispatched batch (for the report's batch-level view)."""

    batch_id: int
    bucket: str
    n_items: int
    close_s: float
    start_s: float
    finish_s: float
    cluster: int
    stacked_m: int
    tune_s: float = 0.0
    stage_s: float = 0.0
    gemm_s: float = 0.0
    lost_s: float = 0.0            # failed fault attempts, honestly charged
    request_ids: list[int] = field(default_factory=list)
    #: ran on a cluster already holding a B replica (skipped B staging)
    b_resident: bool = False
    #: why the bucket closed: full | timeout | drain
    close_reason: str = "full"
    #: the typed error of each failed dispatch attempt, in order
    attempt_errors: list[str] = field(default_factory=list)
    #: the cluster each failed attempt ran on (and was attributed to)
    fault_clusters: list[int] = field(default_factory=list)

    @property
    def redispatches(self) -> int:
        """Failed dispatch attempts: one per entry of ``attempt_errors``."""
        return len(self.attempt_errors)
