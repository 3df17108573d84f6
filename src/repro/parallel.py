"""Process-pool helper for experiment fan-out.

``python -m repro.experiments.run_all --jobs N`` runs the experiment
modules, CPU-bound pure-Python work, so the only way to speed it up on a
multi-core host is multiple processes.  (Plan search stays serial: its
grid holds at most 80 candidates, too few to pay for a pool spawn.)
This module wraps :class:`concurrent.futures.ProcessPoolExecutor` with
the project's conventions:

* **deterministic ordering** — results come back in input order
  (``Executor.map`` semantics), so parallel and serial runs are
  result-identical;
* **picklable work units** — callers pass a module-level function plus
  picklable items (frozen config dataclasses, shapes, plain tuples);
* **jobs control** — ``jobs=None`` resolves ``$REPRO_JOBS``, then the CPU
  count; ``jobs=1`` (or a single item) runs serially in-process, which is
  also the fallback wherever a pool cannot be created (e.g. restricted
  sandboxes);
* **worker warm-up** — workers inherit nothing mutable from the parent:
  each generates its own kernels through its process's registry
  (:mod:`repro.kernels.registry`).

Hardening (all surfaced as ``parallel/*`` counters in :mod:`repro.obs`,
so ``repro perf`` shows what the pool survived):

* a crashed worker (:class:`BrokenProcessPool`) costs one resubmit of
  the whole map to a fresh pool; a second crash raises
  :class:`~repro.errors.WorkerError`.  Exceptions raised by ``fn``
  itself always propagate unchanged;
* pools that cannot be created fall back to serial execution, and after
  :data:`_BREAKER_LIMIT` consecutive such failures a process-wide breaker
  stops attempting pools at all.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TypeVar

from .errors import WorkerError
from .obs.registry import MetricsRegistry, collecting
from .obs.registry import current as _obs_current

T = TypeVar("T")
R = TypeVar("R")

#: consecutive pool-creation failures before giving up on pools entirely
_BREAKER_LIMIT = 3

_consecutive_pool_failures = 0
_pool_disabled = False


def _count(event: str, value: float = 1) -> None:
    m = _obs_current()
    if m is not None:
        m.counter(f"parallel/{event}").inc(value)


def _note_pool_ok() -> None:
    global _consecutive_pool_failures
    _consecutive_pool_failures = 0


def _note_pool_failure() -> None:
    global _consecutive_pool_failures, _pool_disabled
    _consecutive_pool_failures += 1
    _count("pool_failures")
    if _consecutive_pool_failures >= _BREAKER_LIMIT and not _pool_disabled:
        _pool_disabled = True
        _count("breaker_trips")


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` if set and positive, else CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs >= 1:
            return jobs
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None, n_items: int | None = None) -> int:
    """Effective worker count for a task of ``n_items`` units."""
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, int(jobs))
    if n_items is not None:
        jobs = min(jobs, max(1, n_items))
    return jobs


class _CollectingCall:
    """Picklable wrapper: run ``fn`` under a fresh registry in the worker
    and ship ``(result, metrics snapshot)`` back for the parent to merge.

    Without this, any metrics a worker process records land in that
    process's ambient registry and die with it.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, item: T):
        with collecting(MetricsRegistry()) as reg:
            result = self.fn(item)
        return result, reg.snapshot()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]``, fanned across processes.

    Results are returned in input order regardless of completion order.
    Serial fallback when the effective job count is 1, there are fewer
    than two items, the host refuses to fork a pool, or the pool breaker
    has tripped.

    A worker that dies mid-map breaks the pool; the map is resubmitted
    once to a fresh pool, and a second crash raises
    :class:`~repro.errors.WorkerError`.  Exceptions raised by ``fn``
    itself propagate unchanged on first occurrence — they are the
    caller's bug, not pool weather.

    When a metrics registry is ambient (:func:`repro.obs.collecting`),
    each work unit runs under a fresh worker-side registry whose snapshot
    rides back with the result and is merged into the parent registry
    (:meth:`~repro.obs.MetricsRegistry.merge`) — worker metrics are never
    silently dropped.
    """
    seq: Sequence[T] = items if isinstance(items, Sequence) else list(items)
    jobs = resolve_jobs(jobs, len(seq))
    if jobs == 1 or len(seq) < 2 or _pool_disabled:
        # in-process: fn records straight into the ambient registry
        if jobs > 1 and len(seq) >= 2:
            _count("serial_fallbacks")
        return [fn(x) for x in seq]
    parent = _obs_current()
    call = fn if parent is None else _CollectingCall(fn)
    out = _run_map(call, seq, jobs)
    if parent is None:
        return out
    results = []
    for result, snap in out:
        parent.merge(MetricsRegistry.from_snapshot(snap))
        results.append(result)
    return results


def _run_map(fn: Callable[[T], R], seq: Sequence[T], jobs: int) -> list[R]:
    """``Executor.map`` on a fresh pool, resubmitted once after a crash."""
    for attempt in range(2):
        if attempt:
            _count("retries", len(seq))
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                out = list(pool.map(fn, seq))
        except OSError:
            _note_pool_failure()
            _count("serial_fallbacks")
            return [fn(x) for x in seq]
        except BrokenProcessPool:
            _count("worker_crashes")
            continue
        _note_pool_ok()
        return out
    raise WorkerError(
        f"a pool worker crashed running {len(seq)} tasks, and again "
        f"after one resubmit"
    )
