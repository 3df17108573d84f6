"""Deterministic fault injection + the recovery guards that survive it.

One :class:`FaultInjector` accompanies one execution attempt.  It answers
two kinds of questions:

* **injection** — "does fault X strike at site Y?", decided by hashing
  ``(seed, attempt, site key)`` (:meth:`FaultInjector.unit`), so the same
  plan always injects the same faults;
* **recovery** — the guarded operations that keep injected faults from
  corrupting results: read-back-verified tile copies (the DMA engines of
  FT-m7032 can CRC-check transfers) and Huang–Abraham ABFT checksums
  around per-core tile GEMMs (verify-and-recompute).

Bit flips target the *exponent MSB* of one element (bit 30 for float32,
bit 62 for float64).  That is the class of upset ABFT checksums can
always separate from floating-point rounding: the induced change is at
least ``2.0`` in magnitude, while the checksum tolerance is a Higham-style
forward-error bound several orders below it for the tile sizes the
drivers emit.  Low-mantissa flips are numerically indistinguishable from
rounding — the standard ABFT caveat, documented in docs/ROBUSTNESS.md.

Every recovery is counted (``counters``) and mirrored into the ambient
:mod:`repro.obs` registry under ``faults/*`` so ``repro perf`` and the
chaos harness can report the honest cost of surviving.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import CorruptionError, CoreFailureError
from ..obs.registry import current as _obs_current
from ..obs.trace import current_tracer
from .plan import CoreFault, FaultPlan

#: slack multiplier on the Higham rounding bound; keeps false positives
#: impossible in practice while staying far below the >= 2.0 magnitude
#: change an exponent-MSB flip induces.
_ABFT_SLACK = 4.0

#: absolute tolerance floor so all-zero tiles don't demand exact sums.
_ABFT_FLOOR = 1e-30

_EXP_MSB = {4: np.uint32(1 << 30), 8: np.uint64(1 << 62)}


class FaultInjector:
    """Stateful companion of one execution attempt under a fault plan."""

    def __init__(self, plan: FaultPlan, attempt: int = 0) -> None:
        self.plan = plan
        self.attempt = attempt
        self.core_fault: CoreFault | None = plan.core_fault_for_attempt(attempt)
        self.counters: dict[str, float] = {}
        self._kernel_idx = 0
        self._copy_idx = 0

    # -- deterministic decisions -------------------------------------------

    def unit(self, *key) -> float:
        """Uniform [0, 1) value, a pure function of (seed, attempt, key)."""
        blob = repr((self.plan.seed, self.attempt) + key).encode()
        h = hashlib.blake2b(blob, digest_size=8).digest()
        return int.from_bytes(h, "big") / 2.0**64

    def _hit(self, rate: float, *key) -> bool:
        return rate > 0.0 and self.unit(*key) < rate

    @property
    def functional_quiet(self) -> bool:
        """Whether nothing can strike this attempt's functional phase.

        Bit flips and ``after_ops`` core faults are the only functional
        injections; DMA failures, DDR windows and ``after_s`` core faults
        act on the DES alone.
        """
        cf = self.core_fault
        return self.plan.bitflip_rate == 0 and (
            cf is None or cf.after_ops is None
        )

    # -- counters ----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        m = _obs_current()
        if m is not None:
            m.counter(f"faults/{name}").inc(value)
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                f"fault/{name}",
                category="fault",
                track="faults",
                args={"value": value, "attempt": self.attempt,
                      "seed": self.plan.seed},
            )

    # -- DMA transfer failures (timed mode) --------------------------------

    def dma_transfer_fails(self, core: int, issue: int, attempt: int) -> bool:
        return self._hit(self.plan.dma_fail_rate, "dma", core, issue, attempt)

    def backoff_s(self, retry: int, clock_hz: float) -> float:
        """Exponential backoff before retry number ``retry`` (1-based)."""
        return self.plan.backoff_base_cycles * 2.0 ** (retry - 1) / clock_hz

    # -- core failures -----------------------------------------------------

    def check_core_alive_timed(self, core: int, now: float) -> None:
        cf = self.core_fault
        if (
            cf is not None
            and cf.core == core
            and cf.after_s is not None
            and now >= cf.after_s
        ):
            self.count("core_failures")
            raise CoreFailureError(core, at_s=now)

    def check_core_alive_functional(self, core: int, ops_done: int) -> None:
        cf = self.core_fault
        if (
            cf is not None
            and cf.core == core
            and cf.after_ops is not None
            and ops_done >= cf.after_ops
        ):
            self.count("core_failures")
            raise CoreFailureError(core, at_op=ops_done)

    # -- bit flips ---------------------------------------------------------

    def _flip(self, arr: np.ndarray, *key) -> None:
        """Flip the exponent MSB of one deterministically chosen element.

        Works on strided views: the element is round-tripped through a
        one-element scratch array rather than bit-cast in place.
        """
        if arr.size == 0:
            return
        flat_idx = int(self.unit("site", *key) * arr.size) % arr.size
        where = np.unravel_index(flat_idx, arr.shape)
        mask = _EXP_MSB[arr.dtype.itemsize]
        scratch = np.array([arr[where]], dtype=arr.dtype)
        scratch.view(mask.dtype)[0] ^= mask
        arr[where] = scratch[0]
        self.count("bitflips_injected")

    # -- guarded tile copy (DMA read-back verification) --------------------

    def guarded_copy(
        self, dst: np.ndarray, src: np.ndarray, core: int
    ) -> None:
        """``dst[...] = src`` surviving injected transfer corruption.

        After every copy the destination is compared against the source
        (modeling the DMA engine's CRC read-back); a mismatch triggers a
        re-copy, up to ``max_copy_retries``.
        """
        idx = self._copy_idx
        self._copy_idx += 1
        for attempt in range(self.plan.max_copy_retries + 1):
            dst[...] = src
            if self._hit(self.plan.bitflip_rate, "copy", core, idx, attempt):
                self._flip(dst, "copy", core, idx, attempt)
            if np.array_equal(dst, src):
                if attempt:
                    self.count("copy_retries", attempt)
                return
        self.count("copy_retries", self.plan.max_copy_retries)
        raise CorruptionError(
            f"tile copy on core {core} stayed corrupt after "
            f"{self.plan.max_copy_retries} re-copies"
        )

    def guarded_accumulate(
        self, dst: np.ndarray, src: np.ndarray, core: int
    ) -> None:
        """``dst += src`` into C (a K-parallel reduction's write-back).

        Held to the rule of the ABFT-guarded tile GEMMs that update C in
        the other strategies: a non-finite result raises
        :class:`~repro.errors.CorruptionError` and leaves ``dst`` as it
        was; a finite one is stored read-back verified.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            total = dst + src
        if not np.isfinite(total).all():
            raise CorruptionError(
                f"reduction into C on core {core} is not finite"
            )
        self.guarded_copy(dst, total, core)

    # -- ABFT-guarded tile GEMM -------------------------------------------

    def guarded_gemm(self, kern, a, b, c, mode: str, core: int) -> None:
        """Apply ``c += a @ b`` with checksum verify-and-recompute.

        Row and column sums of the updated C tile are checked against
        their closed-form expectations (Huang–Abraham):

            C' 1 = C 1 + A (B 1)        (row sums)
            1ᵀC' = 1ᵀC + (1ᵀA) B        (column sums)

        at O(mk + kn + mn) cost versus the kernel's O(mnk).  A mismatch
        (or a non-finite checksum) restores the saved C tile and
        recomputes; the retry budget exhausting raises
        :class:`~repro.errors.CorruptionError` — never a silent wrong
        answer.
        """
        idx = self._kernel_idx
        self._kernel_idx += 1
        c_before = c.copy()
        exp_rows, exp_cols, tol_rows, tol_cols = _abft_expect(a, b, c_before)
        for attempt in range(self.plan.max_kernel_retries + 1):
            if attempt:
                c[...] = c_before
                self.count("abft_recomputes")
            kern.apply_exec(a, b, c, mode)
            if self._hit(self.plan.bitflip_rate, "kern", core, idx, attempt):
                self._flip(c, "kern", core, idx, attempt)
            if _abft_ok(c, exp_rows, exp_cols, tol_rows, tol_cols):
                return
            self.count("abft_detected")
        raise CorruptionError(
            f"ABFT checksum on core {core} failed after "
            f"{self.plan.max_kernel_retries} recomputes"
        )


def _abft_expect(a, b, c_before):
    """Expected post-update checksums + rounding tolerances (float64)."""
    a64 = a.astype(np.float64, copy=False)
    b64 = b.astype(np.float64, copy=False)
    c64 = c_before.astype(np.float64, copy=False)
    exp_rows = c64.sum(axis=1) + a64 @ b64.sum(axis=1)
    exp_cols = c64.sum(axis=0) + a64.sum(axis=0) @ b64
    k = a.shape[1]
    gamma = _ABFT_SLACK * np.finfo(a.dtype).eps * (k + 8)
    abs_a, abs_b = np.abs(a64), np.abs(b64)
    row_mag = abs_a @ abs_b.sum(axis=1) + np.abs(c64).sum(axis=1)
    col_mag = abs_a.sum(axis=0) @ abs_b + np.abs(c64).sum(axis=0)
    return exp_rows, exp_cols, gamma * row_mag + _ABFT_FLOOR, gamma * col_mag + _ABFT_FLOOR


def _abft_ok(c, exp_rows, exp_cols, tol_rows, tol_cols) -> bool:
    # a flip can make a tile non-finite; the isfinite check rejects it
    with np.errstate(invalid="ignore", over="ignore"):
        rows = c.sum(axis=1, dtype=np.float64)
        cols = c.sum(axis=0, dtype=np.float64)
    if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
        return False
    return bool(
        (np.abs(rows - exp_rows) <= tol_rows).all()
        and (np.abs(cols - exp_cols) <= tol_cols).all()
    )


@dataclass
class FaultReport:
    """What one resilient GEMM survived, and what surviving cost.

    Attached to :class:`~repro.core.ftimm.GemmResult` whenever a fault
    plan was supplied — all-zero when the plan injected nothing.
    """

    seed: int
    injected_bitflips: int = 0
    dma_retries: int = 0
    dma_retry_s: float = 0.0
    copy_retries: int = 0
    abft_detected: int = 0
    abft_recomputes: int = 0
    core_failures: int = 0
    redispatches: int = 0
    #: simulated seconds of work discarded by core-failure re-dispatch
    lost_s: float = 0.0
    #: cores the run finished on (< the initial cluster after failures)
    final_cores: int = 0

    @property
    def recovered_faults(self) -> int:
        return (
            self.dma_retries
            + self.copy_retries
            + self.abft_detected
            + self.redispatches
        )

    def absorb(self, counters: dict[str, float]) -> None:
        """Fold one injector's counters into this report."""
        self.injected_bitflips += int(counters.get("bitflips_injected", 0))
        self.dma_retries += int(counters.get("dma_retries", 0))
        self.dma_retry_s += counters.get("dma_retry_s", 0.0)
        self.copy_retries += int(counters.get("copy_retries", 0))
        self.abft_detected += int(counters.get("abft_detected", 0))
        self.abft_recomputes += int(counters.get("abft_recomputes", 0))
        self.core_failures += int(counters.get("core_failures", 0))
