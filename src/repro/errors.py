"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single except clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A machine configuration is inconsistent or out of range."""


class CapacityError(ReproError):
    """An on-chip memory allocation exceeded the space's capacity."""


class AllocationError(ReproError):
    """A buffer operation (free, view) was used incorrectly."""


class ScheduleError(ReproError):
    """The modulo scheduler could not produce a legal schedule."""


class IsaError(ReproError):
    """An instruction is malformed or used an unknown register/operand."""


class KernelError(ReproError):
    """A micro-kernel specification is unsupported by the generator."""


class PlanError(ReproError):
    """A GEMM execution plan is malformed or violates hardware limits."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ShapeError(ReproError):
    """A GEMM problem shape is invalid (non-positive or overflowing)."""


class InputError(PlanError):
    """Operands handed to the API boundary are unusable (wrong rank,
    dtype, shape mismatch, or non-finite entries).

    Subclasses :class:`PlanError` so existing ``except PlanError`` callers
    keep working; new code should catch :class:`InputError` directly.
    """


class FaultError(ReproError):
    """Base class for errors raised while handling *injected* faults.

    Raised only when a recovery mechanism exhausted its retries — a fault
    that was recovered (DMA retry, ABFT recompute, core re-dispatch) never
    surfaces as an exception.
    """


class DmaTransferError(FaultError):
    """A DMA transfer kept failing after every retry-with-backoff.

    ``at_s`` is the simulated time of the give-up.
    """

    def __init__(self, message: str, at_s: float) -> None:
        super().__init__(message)
        self.at_s = at_s


class CorruptionError(FaultError):
    """Tile data stayed corrupt after the ABFT/readback retry budget."""


class CoreFailureError(FaultError):
    """A DSP core failed mid-run.

    Carries which ``core`` died and where (simulated ``at_s`` seconds for
    timed runs, ``at_op`` op index for functional runs) so the resilient
    driver can account the lost work before re-dispatching.
    """

    def __init__(self, core: int, at_s: float = 0.0, at_op: int = 0) -> None:
        super().__init__(
            f"core {core} failed (t={at_s:.3e}s, op={at_op})"
        )
        self.core = core
        self.at_s = at_s
        self.at_op = at_op


class WorkerError(ReproError):
    """A process-pool worker crashed or hung beyond the retry budget."""


class OverloadError(ReproError):
    """The serving layer shed a request.

    Carries the request id, the queue capacity and a typed ``reason`` so
    shed responses are attributable:

    * ``queue_full`` — the admission queue was at capacity (the classic
      bounded-queue backpressure);
    * ``class_shed`` — the request's priority class hit its per-class
      admission threshold while the queue still had room (loose-SLO bulk
      is dropped before tight-SLO interactive);
    * ``burn_shed``  — the online SLO burn-rate estimate crossed the
      degradation policy's threshold, so low-priority work is shed
      *before* the error budget is gone;
    * ``shutdown``   — the gateway was closed without draining while the
      request was still in flight (the awaited future resolves with this
      error instead of being cancelled silently).

    Shedding is always *loud* — a shed request gets a response carrying
    this error and is counted, never dropped silently.
    """

    REASONS = ("queue_full", "class_shed", "burn_shed", "shutdown")

    def __init__(
        self, req_id: int, capacity: int, reason: str = "queue_full"
    ) -> None:
        if reason not in self.REASONS:
            raise ValueError(f"unknown shed reason {reason!r}")
        detail = {
            "queue_full": f"admission queue full (capacity {capacity})",
            "class_shed": "priority-class admission threshold "
                          f"(capacity {capacity})",
            "burn_shed": "SLO burn-rate protection "
                         f"(capacity {capacity})",
            "shutdown": "gateway closed before the request resolved",
        }[reason]
        super().__init__(f"request {req_id} shed: {detail}")
        self.req_id = req_id
        self.capacity = capacity
        self.reason = reason
