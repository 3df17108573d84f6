"""Shape-bucketed batching with a max-wait / max-batch policy.

Requests are bucketed by *coalescibility*: two requests can run as one
:func:`~repro.core.batched.grouped_gemm` call iff they share N, K, dtype
and B **content** (digest, not object identity — stream-deserialized
requests never share objects).  M may differ per member; the group runs
as one stacked tall GEMM, which is exactly where ftIMM's irregular-shape
machinery earns its keep.

A bucket closes into a :class:`Batch` when it holds ``max_batch``
requests, when its oldest member has waited ``max_wait_s``, or when the
stream drains.  The trade is the classic one: waiting longer builds
taller (more efficient) stacks but spends latency budget; the serving
experiment measures both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.batched import b_digest
from ..core.blocking import DTYPE_SIZES
from ..errors import InputError, PlanError
from .request import GemmRequest

#: bucket key: (N, K, dtype-str, B-content-digest)
BucketKey = tuple[int, int, str, str]

#: numpy dtype -> the repo's dtype tags (core.blocking.DTYPE_SIZES)
_DTYPE_TAGS = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def dtype_tag(dtype: np.dtype) -> str:
    """The tag of an operand's ``dtype``; :class:`~repro.errors.InputError`
    (a :class:`PlanError`) for any other dtype."""
    try:
        return _DTYPE_TAGS[dtype]
    except KeyError:
        raise InputError(f"unsupported operand dtype {str(dtype)!r}") from None


def bucket_key(req: GemmRequest) -> BucketKey:
    """The coalescibility class of a request."""
    n, k = req.shape.n, req.shape.k
    return (n, k, dtype_tag(req.b.dtype), b_digest(req.b))


def bucket_label(key: BucketKey) -> str:
    n, k, dtype, digest = key
    return f"*x{n}x{k}/{dtype}/{digest[:8]}"


def bucket_class(label: str) -> tuple[int, int, str]:
    """The (N, K, dtype) class a :func:`bucket_label` names."""
    head, dtype, _digest = label.split("/")
    _star, n, k = head.split("x")
    return int(n), int(k), dtype


def bucket_b_bytes(key: BucketKey) -> int:
    """Size of the bucket's shared B matrix in bytes.

    A pure function of the bucket key (K x N at the dtype's width), so
    the placement layer can budget replica memory without touching
    request operands.
    """
    n, k, dtype, _digest = key
    return n * k * DTYPE_SIZES[dtype]


@dataclass
class Batch:
    """A closed group of coalescible requests, ready to dispatch."""

    batch_id: int
    key: BucketKey
    requests: list[GemmRequest]
    close_s: float
    reason: str = "full"           # "full" | "timeout" | "drain"

    @property
    def n_items(self) -> int:
        return len(self.requests)

    @property
    def b_digest(self) -> str:
        """The shared-B content digest the bucket coalesced on (the token
        the placement layer keys replica sets on)."""
        return self.key[3]

    @property
    def b_bytes(self) -> int:
        """Size of the batch's shared B matrix in bytes."""
        return bucket_b_bytes(self.key)

    @property
    def stacked_m(self) -> int:
        return sum(r.shape.m for r in self.requests)

    @property
    def deadline_s(self) -> float | None:
        """Earliest member deadline (what EDF sorts on)."""
        deadlines = [
            r.deadline_s for r in self.requests if r.deadline_s is not None
        ]
        return min(deadlines) if deadlines else None


class ShapeBucketBatcher:
    """Accumulates requests into buckets; closes them into batches."""

    def __init__(
        self,
        *,
        max_batch: int = 16,
        max_wait_s: float = 5e-4,
    ) -> None:
        if max_batch < 1:
            raise PlanError("max_batch must be >= 1")
        if not (math.isfinite(max_wait_s) and max_wait_s >= 0):
            raise PlanError(
                f"max_wait_s must be finite and >= 0, got {max_wait_s!r}"
            )
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._buckets: dict[BucketKey, list[GemmRequest]] = {}
        self._next_id = 0

    @property
    def waiting(self) -> int:
        """Requests admitted but not yet closed into a batch."""
        return sum(len(reqs) for reqs in self._buckets.values())

    def add(
        self, req: GemmRequest, key: BucketKey, now: float
    ) -> tuple[Batch | None, BucketKey | None]:
        """Admit one request under its :func:`bucket_key`; returns
        ``(batch, opened)``.

        The caller computes ``key`` (the engine's admission check does,
        once per request).  ``batch`` is the closed batch if the request
        filled its bucket.  ``opened`` is the bucket key if the request
        opened a bucket that is still waiting, so the caller can arm its
        :meth:`due_at` timer.
        """
        bucket = self._buckets.setdefault(key, [])
        bucket.append(req)
        if len(bucket) >= self.max_batch:
            return self._close(key, now, reason="full"), None
        return None, key if len(bucket) == 1 else None

    def due_at(self, key: BucketKey) -> float | None:
        """When this bucket's oldest member hits max_wait (None if empty)."""
        bucket = self._buckets.get(key)
        if not bucket:
            return None
        return bucket[0].arrival_s + self.max_wait_s

    def close_due(self, key: BucketKey, now: float) -> Batch | None:
        """Close the bucket if its oldest member has waited long enough."""
        due = self.due_at(key)
        if due is not None and due <= now:
            return self._close(key, now, reason="timeout")
        return None

    def drain(self, now: float) -> list[Batch]:
        """Close every non-empty bucket (end of stream)."""
        return [self._close(key, now, reason="drain")
                for key in list(self._buckets) if self._buckets[key]]

    def _close(self, key: BucketKey, now: float, *, reason: str) -> Batch:
        requests = self._buckets.pop(key)
        if not requests:
            raise PlanError("closing an empty bucket")
        batch = Batch(
            batch_id=self._next_id, key=key, requests=requests,
            close_s=now, reason=reason,
        )
        self._next_id += 1
        return batch
