"""Declarative, seeded fault plans for the simulated FT-m7032.

A :class:`FaultPlan` is a frozen description of *what can go wrong* during
one GEMM: per-transfer DMA failure probability, per-tile bit-flip
probability (SM/AM/GSM upsets), DDR bandwidth degradation windows, and
explicit mid-run core failures.  It carries no state — execution state
lives in :class:`~repro.faults.inject.FaultInjector`, which is derived
from the plan per attempt.

Determinism is the core contract: every injection decision is a pure
function of ``(seed, attempt, site key)``, so two runs with the same plan
inject byte-identical faults regardless of host, process count or wall
clock.  The chaos harness and the determinism tests rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError


@dataclass(frozen=True)
class CoreFault:
    """One core failing mid-run.

    ``after_s`` arms the fault for timed (DES) execution: the core dies
    the first time it tries to issue work at ``sim.now >= after_s``.
    ``after_ops`` arms it for functional execution: the core dies once it
    has executed that many ops (its own and those it hosts).  ``None``
    leaves the respective mode unaffected.

    ``core`` indexes the original cluster, whatever failed before: a
    fault naming a core that is already dead never fires, since a dead
    core's op stream runs on a survivor.
    """

    core: int
    after_s: float | None = None
    after_ops: int | None = None

    def validate(self) -> "CoreFault":
        if self.core < 0:
            raise ConfigError(f"core fault on negative core {self.core}")
        if self.after_s is not None and self.after_s < 0:
            raise ConfigError(f"core fault after_s={self.after_s} < 0")
        if self.after_ops is not None and self.after_ops < 0:
            raise ConfigError(f"core fault after_ops={self.after_ops} < 0")
        return self


@dataclass(frozen=True)
class DegradationWindow:
    """DDR bandwidth scaled by ``factor`` during ``[start_s, end_s)``.

    Models thermal throttling or a co-tenant cluster stealing the port;
    the shared channel integrates piecewise so DES timing stays exact.
    """

    start_s: float
    end_s: float
    factor: float

    def validate(self) -> "DegradationWindow":
        if not 0.0 <= self.start_s < self.end_s:
            raise ConfigError(
                f"degradation window [{self.start_s}, {self.end_s}) is empty"
            )
        if not 0.0 < self.factor <= 1.0:
            raise ConfigError(
                f"degradation factor {self.factor} outside (0, 1]"
            )
        return self


@dataclass(frozen=True)
class FaultPlan:
    """Everything the injector needs to decide *when* faults strike.

    Rates are per-site probabilities in ``[0, 1]``: ``dma_fail_rate`` per
    DMA descriptor attempt (timed mode — a failed transfer is retried
    with exponential backoff, all costed in simulated time), and
    ``bitflip_rate`` per tile move / kernel application (functional mode
    — caught by DMA read-back verification and ABFT checksums).

    ``core_faults`` fire one per re-dispatch attempt, in order: the first
    entry strikes the initial run, the second strikes the first re-run
    (the same program, a survivor hosting the dead core's op stream), and
    so on.  This keeps multi-failure scenarios expressible while
    guaranteeing the resilient driver terminates.  Core indices name
    cores of the original cluster; an entry naming a core that is already
    dead never fires.
    """

    seed: int = 0
    dma_fail_rate: float = 0.0
    bitflip_rate: float = 0.0
    ddr_degradation: tuple[DegradationWindow, ...] = ()
    core_faults: tuple[CoreFault, ...] = ()
    max_dma_retries: int = 5
    backoff_base_cycles: int = 2_000
    max_kernel_retries: int = 3
    max_copy_retries: int = 3

    def __post_init__(self) -> None:
        for name in ("dma_fail_rate", "bitflip_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name}={rate} outside [0, 1]")
        for name in (
            "max_dma_retries", "backoff_base_cycles",
            "max_kernel_retries", "max_copy_retries",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        windows = sorted(self.ddr_degradation, key=lambda w: w.start_s)
        for w in windows:
            w.validate()
        for prev, nxt in zip(windows, windows[1:]):
            if nxt.start_s < prev.end_s:
                raise ConfigError(
                    f"degradation windows overlap at {nxt.start_s}"
                )
        object.__setattr__(self, "ddr_degradation", tuple(windows))
        for cf in self.core_faults:
            cf.validate()

    @property
    def enabled(self) -> bool:
        """Whether this plan can inject anything at all."""
        return bool(
            self.dma_fail_rate
            or self.bitflip_rate
            or self.ddr_degradation
            or self.core_faults
        )

    def core_fault_for_attempt(self, attempt: int) -> CoreFault | None:
        if 0 <= attempt < len(self.core_faults):
            return self.core_faults[attempt]
        return None


#: a benign default: nothing ever fails (useful as an explicit "faults
#: wired but quiet" plan in tests).
NO_FAULTS = FaultPlan()
