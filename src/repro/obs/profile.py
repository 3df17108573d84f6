"""Per-epoch execution profile of one timed (DES) run.

An *epoch* is the interval between consecutive cluster-wide SYNC points
(epoch ``i`` ends when sync ``i`` completes; the final epoch ends at plan
completion).  Because a SYNC waits for every prior op of every core, no
kernel or DMA op ever crosses an epoch boundary — each op is attributed
wholly to the epoch it runs in.

The timed executor fills a :class:`RunProfile` under an ambient metrics
registry (``repro.obs.collecting()``) or tracer; the bottleneck report (:mod:`repro.analysis.bottleneck`) consumes it.  All
times are simulated seconds, not wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class EpochProfile:
    """Busy-time accounting for one inter-sync interval."""

    index: int
    n_cores: int
    start: float = 0.0
    end: float = 0.0
    #: per-core seconds the compute pipeline ran kernels this epoch
    compute_busy: list[float] = field(default_factory=list)
    #: per-core seconds spent in DMA ops (engine queue + transfer)
    dma_busy: list[float] = field(default_factory=list)
    #: per-core seconds between barrier arrival and barrier release
    sync_wait: list[float] = field(default_factory=list)
    #: per-core seconds the op walker stalled on the in-flight window
    window_stall: list[float] = field(default_factory=list)
    #: DMA payload bytes moved this epoch, keyed by medium ("ddr", ...)
    bytes_by_medium: dict[str, int] = field(default_factory=dict)
    sync_tag: str = ""

    def __post_init__(self) -> None:
        for lst in (self.compute_busy, self.dma_busy, self.sync_wait,
                    self.window_stall):
            if not lst:
                lst.extend(0.0 for _ in range(self.n_cores))

    @property
    def duration(self) -> float:
        return self.end - self.start

    def mean_frac(self, busy: list[float]) -> float:
        dur = self.duration
        if dur <= 0:
            return 0.0
        return sum(busy) / (self.n_cores * dur)

    @property
    def compute_frac(self) -> float:
        return self.mean_frac(self.compute_busy)

    @property
    def dma_frac(self) -> float:
        return self.mean_frac(self.dma_busy)

    @property
    def sync_frac(self) -> float:
        return self.mean_frac(self.sync_wait)

    @property
    def stall_frac(self) -> float:
        return self.mean_frac(self.window_stall)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "compute_busy": list(self.compute_busy),
            "dma_busy": list(self.dma_busy),
            "sync_wait": list(self.sync_wait),
            "window_stall": list(self.window_stall),
            "bytes_by_medium": dict(self.bytes_by_medium),
            "sync_tag": self.sync_tag,
        }


def merge_intervals(intervals: list[tuple[float, float]]) -> float:
    """Total covered length of possibly-overlapping ``(start, end)`` pairs."""
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    busy = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            busy += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return busy + (cur_end - cur_start)


@dataclass
class RunProfile:
    """Ordered epochs of one run, filled in by the timed executor."""

    n_cores: int
    epochs: list[EpochProfile] = field(default_factory=list)
    seconds: float = 0.0
    #: raw (start, end) DMA spans per (epoch, core); several transfers can
    #: be in flight on one engine, so spans overlap — merged at finish()
    #: into ``dma_busy`` ("time at least one transfer outstanding")
    _dma_spans: dict[tuple[int, int], list[tuple[float, float]]] = field(
        default_factory=dict, repr=False
    )

    def epoch(self, index: int) -> EpochProfile:
        """The epoch record for ``index``, growing the list as needed."""
        while len(self.epochs) <= index:
            prev_end = self.epochs[-1].end if self.epochs else 0.0
            self.epochs.append(
                EpochProfile(index=len(self.epochs), n_cores=self.n_cores,
                             start=prev_end, end=prev_end)
            )
        return self.epochs[index]

    def add_compute(self, index: int, core: int, seconds: float) -> None:
        self.epoch(index).compute_busy[core] += seconds

    def add_dma(self, index: int, core: int, start: float, end: float,
                medium: str, nbytes: int) -> None:
        ep = self.epoch(index)
        self._dma_spans.setdefault((index, core), []).append((start, end))
        ep.bytes_by_medium[medium] = ep.bytes_by_medium.get(medium, 0) + nbytes

    def add_sync_wait(self, index: int, core: int, seconds: float) -> None:
        self.epoch(index).sync_wait[core] += seconds

    def add_window_stall(self, index: int, core: int, seconds: float) -> None:
        self.epoch(index).window_stall[core] += seconds

    def close_epoch(self, index: int, end: float, tag: str = "") -> None:
        """Record sync ``index`` completing at ``end`` (epoch boundary)."""
        ep = self.epoch(index)
        ep.end = end
        if tag:
            ep.sync_tag = tag
        nxt = self.epoch(index + 1)
        nxt.start = end
        if nxt.end < end:
            nxt.end = end

    def finish(self, seconds: float) -> None:
        """Close the final epoch at plan completion time."""
        self.seconds = seconds
        for (index, core), spans in self._dma_spans.items():
            self.epoch(index).dma_busy[core] = merge_intervals(spans)
        self._dma_spans.clear()
        if self.epochs:
            self.epochs[-1].end = seconds
            # drop a zero-width trailing epoch (plan ended exactly on a sync)
            last = self.epochs[-1]
            if last.duration <= 0 and not any(
                last.compute_busy + last.dma_busy + last.sync_wait
            ):
                self.epochs.pop()
        else:
            self.epoch(0).end = seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_cores": self.n_cores,
            "seconds": self.seconds,
            "epochs": [ep.to_dict() for ep in self.epochs],
        }
