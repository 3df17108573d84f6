"""DMA engine model: 2-D strided descriptors and their timing.

Each DSP core owns a DMA engine used to move tiles between DDR, GSM, SM and
AM (Fig. 2).  A descriptor describes a 2-D transfer: ``rows`` rows of
``row_bytes`` contiguous bytes each (strides exist in the real hardware but
only the row geometry affects timing, via per-row burst overhead).

Timing of one descriptor::

    startup  +  effective_bytes / bandwidth(medium, contention)

* ``startup`` — engine programming + first-burst latency
  (``DmaConfig.startup_cycles``).
* ``effective_bytes`` — ``rows * (row_bytes + row_overhead)`` when the
  transfer touches DDR: short rows waste DDR bursts.  On-chip media move
  exactly ``rows * row_bytes``.
* the *medium* is the slowest memory touched: DDR if either endpoint is
  DDR, else GSM if either endpoint is GSM, else the core-local link.

The per-row overhead is what makes measured DDR bandwidth fall short of the
theoretical 42.6 GB/s for skinny tiles — the effect the paper invokes to
explain ftIMM reaching only ~67% of its roofline (Section V-C1).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Union

from ..errors import DmaTransferError, PlanError
from ..obs.trace import current_tracer
from .bandwidth import LocalChannel, SharedChannel
from .config import DmaConfig, DspCoreConfig
from .event_sim import Callback, Simulator
from .memory import MemKind

Channel = Union[SharedChannel, LocalChannel]


@dataclass(frozen=True)
class DmaDescriptor:
    """One 2-D DMA transfer: ``rows`` rows of ``row_bytes`` each."""

    src: MemKind
    dst: MemKind
    rows: int
    row_bytes: int
    tag: str = ""
    #: the slowest memory level this transfer touches (derived)
    medium: MemKind = field(init=False, repr=False, compare=False)
    #: ``medium.value``, read once here rather than on every transfer
    medium_value: str = field(init=False, repr=False, compare=False)
    #: payload bytes, ``rows * row_bytes``
    nbytes: int = field(init=False, repr=False, compare=False)
    #: ``(cfg, effective_bytes(cfg))`` for the last config asked about
    _effective: tuple[DmaConfig, int] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.rows < 0 or self.row_bytes < 0:
            raise PlanError(f"negative DMA geometry in {self}")
        if MemKind.DDR in (self.src, self.dst):
            medium = MemKind.DDR
        elif MemKind.GSM in (self.src, self.dst):
            medium = MemKind.GSM
        else:
            medium = MemKind.AM
        object.__setattr__(self, "medium", medium)
        object.__setattr__(self, "medium_value", medium.value)
        object.__setattr__(self, "nbytes", self.rows * self.row_bytes)

    def effective_bytes(self, cfg: DmaConfig) -> int:
        """Bytes the medium carries; computed once per config."""
        memo = self._effective
        if memo is not None and memo[0] is cfg:
            return memo[1]
        if self.medium is MemKind.DDR:
            nbytes = self.rows * (self.row_bytes + cfg.row_overhead_bytes)
        else:
            nbytes = self.nbytes
        object.__setattr__(self, "_effective", (cfg, nbytes))
        return nbytes


class DmaEngine:
    """The per-core DMA engine, for discrete-event execution.

    ``channels_per_core`` descriptors may be in flight concurrently; further
    requests queue FIFO at the engine.  The data movement itself is charged
    to the medium's bandwidth channel (shared for DDR/GSM).

    The engine keeps its channel slots itself: a free slot is granted
    inside the :meth:`submit` that asks for it, and a freed one inside
    the completion that frees it, to the oldest queued transfer.  A grant
    pushes the transfer's startup through
    :meth:`~repro.hw.event_sim.Simulator.schedule_soon`, which keeps the
    push where a queued grant call would have made it (see
    :mod:`repro.hw.event_sim`).
    """

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        core_cfg: DspCoreConfig,
        dma_cfg: DmaConfig,
        channels: dict[MemKind, Channel],
        faults=None,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.cfg = dma_cfg
        self.core_cfg = core_cfg
        self.channels = channels
        #: ``channels`` keyed by medium value: a str key hashes in C,
        #: where a ``MemKind`` key goes through ``Enum.__hash__``
        self._channel_of = {kind.value: ch for kind, ch in channels.items()}
        #: engine channels: how many, how many are busy, and the
        #: transfers queued for one, oldest first
        self.capacity = dma_cfg.channels_per_core
        self.in_use = 0
        self.waiting: deque[Transfer] = deque()
        self.startup_s = dma_cfg.startup_cycles / core_cfg.clock_hz
        self.bytes_moved = 0
        self.transfers = 0
        #: optional :class:`~repro.faults.inject.FaultInjector`; when set,
        #: transfers can fail (seeded) and are retried with exponential
        #: backoff — every retry costed in simulated time.
        self.faults = faults
        self._issued = 0
        #: failed-transfer retries performed, and the simulated seconds
        #: they consumed (wasted transfer time + backoff)
        self.retries = 0
        self.retry_s = 0.0
        # observation-only accounting (never feeds back into timing):
        #: total seconds descriptors waited for a free engine channel
        self.queue_wait_s = 0.0
        #: high-water mark of descriptors queued behind the channels
        self.queue_depth_peak = 0
        #: payload bytes moved, keyed by medium value ("ddr", "gsm", "am")
        self.bytes_by_medium: defaultdict[str, int] = defaultdict(int)
        #: the ambient tracer of the run this engine serves, looked up once
        self.tracer = current_tracer()

    def issue(self, desc: DmaDescriptor, fn: Callback, arg: Any = None) -> None:
        """Start a transfer now; ``fn(arg)`` runs at its completion."""
        self.submit(_Call(fn, arg), desc)

    def submit(self, x: "Transfer", desc: DmaDescriptor) -> None:
        """Start transfer ``x`` of ``desc`` now; ``x.done()`` runs at its
        completion.

        A transfer is a small state machine: wait for an engine channel,
        pay the startup, move the bytes over the medium's channel (``x``
        is the channel's flow), and on an injected failure back off and
        start again.
        """
        x.desc = desc
        x.t_request = self.sim.now
        x.attempt = 0
        x.fn = self._transferred
        x.arg = x
        if self.in_use < self.capacity:
            self.in_use += 1
            self._grant(x)
        else:
            waiting = self.waiting
            waiting.append(x)
            if len(waiting) > self.queue_depth_peak:
                self.queue_depth_peak = len(waiting)

    def _grant(self, x: "Transfer") -> None:
        now = self.sim.now
        if now != x.t_request:  # adding a zero wait changes no float
            self.queue_wait_s += now - x.t_request
        if x.desc.nbytes > 0:
            if self.faults is not None:  # what a retry reads
                x.issue_idx = self._issued
                self._issued += 1
                x.t0 = now
            self.sim.schedule_soon(self.startup_s, self._started, x)
        else:
            self.sim.call_soon(self._finish, x)

    def _started(self, x: "Transfer") -> None:
        desc = x.desc
        self._channel_of[desc.medium_value].carry(
            x, desc.effective_bytes(self.cfg)
        )

    def _transferred(self, x: "Transfer") -> None:
        desc = x.desc
        inj = self.faults
        if inj is not None and inj.dma_transfer_fails(
            self.core_id, x.issue_idx, x.attempt
        ):
            # transfer failed: the time it took is already spent;
            # back off exponentially, then re-issue from scratch
            x.attempt += 1
            wasted = self.sim.now - x.t0
            if x.attempt > inj.plan.max_dma_retries:
                self.retries += 1
                self.retry_s += wasted
                inj.count("dma_retries")
                inj.count("dma_retry_s", wasted)
                err = DmaTransferError(
                    f"DMA {desc.tag!r} on core {self.core_id} failed "
                    f"{x.attempt} times (giving up at "
                    f"t={self.sim.now:.3e}s)",
                    at_s=self.sim.now,
                )
                self._release()
                raise err
            backoff = inj.backoff_s(x.attempt, self.core_cfg.clock_hz)
            tracer = self.tracer
            if tracer is not None:
                tracer.instant(
                    f"dma-retry {desc.tag or 'transfer'}",
                    at_s=self.sim.now,
                    category="dma-retry",
                    track=f"core{self.core_id}/dma",
                    args={"core": self.core_id, "attempt": x.attempt,
                          "wasted_s": wasted, "backoff_s": backoff},
                )
            x.wasted, x.backoff = wasted, backoff
            self.sim.schedule(backoff, self._backed_off, x)
            return
        nbytes = desc.nbytes
        self.bytes_moved += nbytes
        medium = desc.medium_value
        self.bytes_by_medium[medium] += nbytes
        tracer = self.tracer
        if tracer is not None:
            # queue wait + startup + transfer (+ retries), end to end
            tracer.record(
                desc.tag or "dma",
                category="dma",
                start_s=x.t_request,
                end_s=self.sim.now,
                track=f"core{self.core_id}/dma",
                args={"core": self.core_id, "bytes": nbytes,
                      "medium": medium, "rows": desc.rows},
            )
        self._finish(x)

    def _backed_off(self, x: "Transfer") -> None:
        self.retries += 1
        self.retry_s += x.wasted + x.backoff
        inj = self.faults
        inj.count("dma_retries")
        inj.count("dma_retry_s", x.wasted + x.backoff)
        x.t0 = self.sim.now
        self.sim.schedule(self.startup_s, self._started, x)

    def _finish(self, x: "Transfer") -> None:
        x.arg = None  # the flow's reference to itself: free it by count
        self.transfers += 1
        self._release()
        x.done()

    def _release(self) -> None:
        """Hand a freed channel to the oldest queued transfer, at once."""
        if self.waiting:
            self._grant(self.waiting.popleft())
        else:
            self.in_use -= 1


class Transfer:
    """One descriptor in flight on a :class:`DmaEngine`, and its flow on
    the medium's channel: a subclass says what :meth:`done` does.

    The engine fills every field: ``fn(arg)`` is the channel's call when
    the bytes are served (the engine's), ``remaining`` the bytes a shared
    channel has still to serve.
    """

    __slots__ = ("desc", "t_request", "issue_idx", "attempt", "t0",
                 "wasted", "backoff", "remaining", "fn", "arg")

    def done(self) -> None:
        """Called once the transfer has completed."""
        raise NotImplementedError


class _Call(Transfer):
    """A transfer that calls ``then(then_arg)`` when done."""

    __slots__ = ("then", "then_arg")

    def __init__(self, then: Callback, then_arg: Any) -> None:
        self.then = then
        self.then_arg = then_arg

    def done(self) -> None:
        self.then(self.then_arg)
