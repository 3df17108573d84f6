"""Shared-bandwidth channels with processor-sharing semantics.

The 42.6 GB/s DDR port of a GPDSP cluster is shared by the DMA engines of
all eight cores; when several cores stream A-panels concurrently, each sees
a fraction of the port.  This contention is the mechanism behind two of the
paper's observations: multi-core ftIMM saturating well below the roofline,
and the poor scaling of memory-bound shapes in Fig. 6.

:class:`SharedChannel` models the port as a fluid processor-sharing server:
``n`` concurrent transfers each progress at ``bandwidth / n``.  The DES
implementation is exact (no time-stepping): the first arrival or wake-up
of an instant advances all flows by the elapsed time at the old rate, and
the instant's end re-projects the next completion.

One wake-up per instant.  Every arrival, and every live wake-up, changes
the projection, and a wake-up pushed for each would leave all but the
instant's last one stale: popped later as an event that does nothing.
Instead each of them reserves the ``seq`` its push would take
(:meth:`~repro.hw.event_sim.Simulator.reserve_seq`) and bumps the
channel's epoch, and one end-of-instant hook pushes the wake-up with the
last reservation.  The pushed entry is the one the instant's last push
would have been: the flows and the clock at the hook are those after the
last arrival (a later arrival or wake-up at the instant would have
reserved again), so its time is the same float, and its ``seq`` is that
push's.  Only the stale entries are gone: they ran no code and took no
place any other entry is ordered by.  The advance that opens an instant
also finds the least remaining bytes of the flows it keeps, and an
arrival lowers it, so the hook reads the projection's minimum without a
pass of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..errors import SimulationError
from .event_sim import Callback, Simulator

_EPS_BYTES = 1e-6


class _Flow:
    """One transfer in progress: bytes left and the call to make when
    they are served."""

    __slots__ = ("remaining", "fn", "arg")

    def __init__(self, fn: Callback, arg: Any) -> None:
        self.fn = fn
        self.arg = arg


@dataclass
class ChannelStats:
    """Aggregate statistics, for tests and bandwidth-utilization reports."""

    bytes_served: float = 0.0
    flows_completed: int = 0
    busy_time: float = 0.0
    weighted_concurrency: float = 0.0  # integral of n_active dt
    #: busy time during which >1 flow shared the port (contention)
    contended_time: float = 0.0
    #: integral of (n_active - 1) dt — flow-seconds spent stalled behind
    #: other flows; the "contention stall" measure of the perf report
    stall_flow_seconds: float = 0.0

    def mean_concurrency(self) -> float:
        return self.weighted_concurrency / self.busy_time if self.busy_time else 0.0


class SharedChannel:
    """A fluid-flow processor-sharing bandwidth server.

    ``per_flow_cap`` bounds the rate any single flow can draw — modeling a
    DMA channel's own sustainable bandwidth: one engine cannot saturate the
    whole DDR port, which is what makes multi-core GEMM scale at all on
    memory-bound shapes (Fig. 6).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        name: str = "",
        per_flow_cap: float | None = None,
        record_timeline: bool = False,
        degradation: list[tuple[float, float, float]] | None = None,
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"channel {name!r}: bandwidth must be > 0")
        if per_flow_cap is not None and per_flow_cap <= 0:
            raise SimulationError(f"channel {name!r}: cap must be > 0")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.per_flow_cap = float(per_flow_cap) if per_flow_cap else None
        self.name = name
        self.stats = ChannelStats()
        self._flows: list[_Flow] = []
        self._last_t = sim.now
        self._epoch = 0
        #: least remaining bytes among ``_flows`` (inf when idle), and
        #: the per-flow rate the last re-projection drew
        self._min_remaining = math.inf
        self._rate = 0.0
        #: the ``seq`` reserved for this instant's wake-up push, and
        #: whether its end-of-instant re-projection is registered
        self._wake_seq = 0
        self._reproject_queued = False
        #: fault-injection degradation windows: sorted, non-overlapping
        #: ``(start_s, end_s, factor)`` triples scaling the port bandwidth
        #: during ``[start_s, end_s)``.  The fluid model stays exact: the
        #: wake-up scheduler never projects a completion across a window
        #: boundary, so every integration interval has a constant rate.
        self._windows: tuple[tuple[float, float, float], ...] = tuple(
            sorted(degradation or (), key=lambda w: w[0])
        )
        for start, end, factor in self._windows:
            if not (0.0 <= start < end and 0.0 < factor <= 1.0):
                raise SimulationError(
                    f"channel {name!r}: bad degradation window "
                    f"({start}, {end}, {factor})"
                )
        #: optional (time, aggregate_rate_bytes_per_s) step samples; one
        #: entry per membership change when enabled
        self.timeline: list[tuple[float, float]] | None = (
            [] if record_timeline else None
        )

    def _flow_rate(self, t: float, n: int) -> float:
        """Per-flow rate at time ``t`` with ``n`` flows sharing the port."""
        if self._windows:
            factor = 1.0
            for start, end, window_factor in self._windows:
                if start <= t < end:
                    factor = window_factor
                    break
            rate = self.bandwidth * factor / n
        else:
            rate = self.bandwidth / n
        cap = self.per_flow_cap
        if cap is not None and cap < rate:
            rate = cap
        return rate

    def _next_boundary(self, t: float) -> float | None:
        """The earliest window edge strictly after ``t``, if any."""
        for start, end, _factor in self._windows:
            if t < start:
                return start
            if t < end:
                return end
        return None

    def _record(self) -> None:
        n = len(self._flows)
        rate = self._flow_rate(self.sim.now, n) * n if n else 0.0
        self.timeline.append((self.sim.now, rate))

    # -- public API --------------------------------------------------------

    def transfer(self, nbytes: float, fn: Callback, arg: Any = None) -> None:
        """Start a transfer of ``nbytes``; ``fn(arg)`` runs at completion."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        self.carry(_Flow(fn, arg), nbytes)

    def carry(self, flow, nbytes: float) -> None:
        """Start serving ``nbytes`` (not negative) for ``flow``, an object
        with ``remaining``, ``fn`` and ``arg`` slots; ``flow.fn(flow.arg)``
        runs at completion.  The DMA engine's transfers are their own
        flows."""
        sim = self.sim
        if nbytes == 0:
            sim.call_soon(flow.fn, flow.arg)
            return
        if sim.now != self._last_t:
            self._advance()
        flow.remaining = remaining = float(nbytes)
        self._flows.append(flow)
        if remaining < self._min_remaining:
            self._min_remaining = remaining
        if self.timeline is not None:
            self._record()
        self._rearm()

    # -- internals ---------------------------------------------------------

    def _advance(self) -> None:
        """Apply progress accumulated since the last state change, and
        find the least remaining bytes of the flows left."""
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0 or not self._flows:
            return
        flows = self._flows
        n = len(flows)
        # rate is constant over [last_t, now]: wake-ups are capped at
        # window boundaries, so no interval straddles a factor change
        if self._windows:
            served = dt * self._flow_rate(now - dt, n)
        else:
            # the rate the last re-projection drew: without windows it
            # depends on the flow count alone, and every change to the
            # flows is re-projected at the end of its instant
            served = dt * self._rate
        stats = self.stats
        stats.busy_time += dt
        stats.weighted_concurrency += n * dt
        if n > 1:
            stats.contended_time += dt
            stats.stall_flow_seconds += (n - 1) * dt
        # one pass: served flows are called as they are found, survivors
        # move up in order.  A call never re-enters the channel (a
        # transfer starts only from its own DmaEngine._started event), so
        # this equals serving every flow first and calling after.
        kept = 0
        min_remaining = math.inf
        bytes_served = stats.bytes_served
        for flow in flows:
            remaining = flow.remaining - served
            flow.remaining = remaining
            # the bytes this flow drew: ``served``, less any overshoot
            bytes_served += served if remaining >= 0 else served + remaining
            if remaining <= _EPS_BYTES:
                stats.bytes_served = bytes_served
                stats.flows_completed += 1
                flow.fn(flow.arg)
            else:
                flows[kept] = flow
                kept += 1
                if remaining < min_remaining:
                    min_remaining = remaining
        stats.bytes_served = bytes_served
        self._min_remaining = min_remaining
        if kept < n:
            del flows[kept:]
            if self.timeline is not None:
                self._record()

    def _rearm(self) -> None:
        """Mark the projection changed: stale any wake-up pushed before,
        take the place of this one's push, and re-project at the end of
        the instant (see the module docstring)."""
        self._epoch += 1
        if not self._flows:
            return
        sim = self.sim
        self._wake_seq = sim.reserve_seq()
        if not self._reproject_queued:
            self._reproject_queued = True
            sim.end_of_instant.append(self._reproject)

    def _reproject(self) -> None:
        """Push the wake-up at the earliest projected completion.

        With degradation windows the projection is capped at the next
        window boundary: the wake-up there re-integrates at the old rate
        and re-projects at the new one, keeping the fluid model exact
        under a piecewise-constant port bandwidth.
        """
        self._reproject_queued = False
        flows = self._flows
        if not flows:
            return
        sim = self.sim
        now = sim.now
        self._rate = rate = self._flow_rate(now, len(flows))
        delay = self._min_remaining / rate
        if self._windows:
            boundary = self._next_boundary(now)
            if boundary is not None:
                delay = min(delay, boundary - now)
        sim.push_reserved(delay, self._wake_seq, self._on_wake, self._epoch)

    def _on_wake(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # stale wake-up: membership changed since it was armed
        self._advance()
        self._rearm()


class LocalChannel:
    """Uncontended fixed-bandwidth link (per-core SM/AM side of a DMA).

    Transfers each take ``nbytes / bandwidth`` independent of concurrency;
    serialization, when it matters, is enforced by the DMA engine's channel
    slots, not by the link.
    """

    def __init__(self, sim: Simulator, bandwidth: float, name: str = "") -> None:
        if bandwidth <= 0:
            raise SimulationError(f"channel {name!r}: bandwidth must be > 0")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.name = name
        self.stats = ChannelStats()

    def transfer(self, nbytes: float, fn: Callback, arg: Any = None) -> None:
        """Start a transfer of ``nbytes``; ``fn(arg)`` runs at completion."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        stats = self.stats
        stats.bytes_served += nbytes
        stats.flows_completed += 1
        delay = nbytes / self.bandwidth
        stats.busy_time += delay
        stats.weighted_concurrency += delay
        self.sim.schedule(delay, fn, arg)

    def carry(self, flow, nbytes: float) -> None:
        """:meth:`transfer` for ``flow`` (see :meth:`SharedChannel.carry`)."""
        self.transfer(nbytes, flow.fn, flow.arg)


def mean_utilization(
    timeline: list[tuple[float, float]], bandwidth: float, until: float
) -> float:
    """Time-averaged fraction of ``bandwidth`` drawn, from step samples."""
    if not timeline or until <= 0:
        return 0.0
    total = 0.0
    for (t0, rate), (t1, _r) in zip(timeline, timeline[1:]):
        total += rate * (t1 - t0)
    last_t, last_rate = timeline[-1]
    total += last_rate * max(0.0, until - last_t)
    return total / (bandwidth * until)
