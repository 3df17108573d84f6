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

from dataclasses import dataclass, field
from typing import Any, Union

from ..errors import DmaTransferError, PlanError
from ..obs.trace import current_tracer
from .bandwidth import LocalChannel, SharedChannel
from .config import DmaConfig, DspCoreConfig
from .event_sim import Callback, Resource, Simulator
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

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_bytes

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
        self.slots = Resource(sim, dma_cfg.channels_per_core, name=f"dma{core_id}")
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
        self.bytes_by_medium: dict[str, int] = {}
        #: the ambient tracer of the run this engine serves, looked up once
        self.tracer = current_tracer()

    def issue(self, desc: DmaDescriptor, fn: Callback, arg: Any = None) -> None:
        """Start a transfer now; ``fn(arg)`` runs at its completion.

        A transfer is a small state machine: wait for an engine channel,
        pay the startup, move the bytes over the medium's channel, and on
        an injected failure back off and start again.
        """
        slots = self.slots
        if slots.in_use >= slots.capacity:
            queued = slots.queued
            if queued + 1 > self.queue_depth_peak:
                self.queue_depth_peak = queued + 1
        slots.request(self._granted, _Transfer(desc, fn, arg, self.sim.now))

    def _granted(self, x: "_Transfer") -> None:
        now = self.sim.now
        self.queue_wait_s += now - x.t_request
        if x.nbytes > 0:
            x.issue_idx = self._issued
            self._issued += 1
            x.t0 = now
            self.sim.schedule_soon(self.startup_s, self._started, x)
        else:
            self.sim.call_soon(self._finish, x)

    def _started(self, x: "_Transfer") -> None:
        desc = x.desc
        self.channels[desc.medium].transfer(
            desc.effective_bytes(self.cfg), self._transferred, x
        )

    def _transferred(self, x: "_Transfer") -> None:
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
                self.slots.release()
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
        nbytes = x.nbytes
        self.bytes_moved += nbytes
        medium = desc.medium.value
        self.bytes_by_medium[medium] = (
            self.bytes_by_medium.get(medium, 0) + nbytes
        )
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

    def _backed_off(self, x: "_Transfer") -> None:
        self.retries += 1
        self.retry_s += x.wasted + x.backoff
        inj = self.faults
        inj.count("dma_retries")
        inj.count("dma_retry_s", x.wasted + x.backoff)
        x.t0 = self.sim.now
        self.sim.schedule(self.startup_s, self._started, x)

    def _finish(self, x: "_Transfer") -> None:
        self.transfers += 1
        self.slots.release()
        x.fn(x.arg)


class _Transfer:
    """One descriptor in flight on a :class:`DmaEngine`."""

    __slots__ = ("desc", "nbytes", "fn", "arg", "t_request", "issue_idx",
                 "attempt", "t0", "wasted", "backoff")

    def __init__(self, desc: DmaDescriptor, fn: Callback, arg: Any,
                 t_request: float) -> None:
        self.desc = desc
        #: payload bytes, computed once
        self.nbytes = desc.nbytes
        self.fn = fn
        self.arg = arg
        self.t_request = t_request
        self.attempt = 0
