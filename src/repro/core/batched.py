"""Batched and grouped GEMM (the FEM / libxsmm use case of the intro).

The paper motivates irregular GEMM with workloads that issue *many* small
multiplications — FEM operator application, per-layer CNN lowering.
Issuing them one `ftimm_gemm` at a time repays the fixed costs (panel
fills, barriers, strategy setup) per call.  :func:`grouped_gemm` runs many
A/C pairs sharing one B (exactly FEM's per-element operator) as one GEMM:
the A blocks are a *logical* vertical stack, so the whole group runs as
one tall-and-skinny call, and the shared B is cached in GSM once instead
of once per element block.  :func:`naive_batch_seconds` models the
one-call-per-item loop it replaces.

The serve batcher (:func:`~repro.serve.batcher.bucket_key`) decides which
requests share a B by **content digest** (:func:`b_digest`): two B arrays
that are equal but distinct objects — the normal case for requests
deserialized from a stream — still coalesce.  The digest is interned:
blake2b runs once per distinct B content, and every later B with
bitwise-equal content gets the stored digest back after one element-wise
compare, from a process-wide table bounded by :data:`_INTERN_BYTES`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import PlanError, ShapeError
from ..hw.config import MachineConfig, default_machine
from ..obs.registry import current as _obs_current
from .ftimm import GemmResult, ftimm_gemm
from .shapes import GemmShape


#: bound on the bytes all interned B copies hold together.  The serve
#: benchmark mixes hold a few MB of distinct B; a B larger than the bound
#: is digested and not kept.
_INTERN_BYTES = 16 << 20

#: samples per axis in an intern fingerprint
_FINGERPRINT_STEPS = 8

#: (dtype, shape, fingerprint) -> [(private copy, digest), ...], oldest first
_interned: OrderedDict[tuple, list[tuple[np.ndarray, str]]] = OrderedDict()
_interned_bytes = 0


def _blake2b(b: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(b.dtype).encode())
    h.update(str(b.shape).encode())
    h.update(np.ascontiguousarray(b).tobytes())
    return h.hexdigest()


def _fingerprint(b: np.ndarray) -> bytes:
    """Bytes of a strided sample along every axis (copies only the sample)."""
    step = tuple(
        slice(None, None, max(1, n // _FINGERPRINT_STEPS)) for n in b.shape
    )
    return np.asarray(b[step]).tobytes()


def _bits(x: np.ndarray) -> np.ndarray:
    """``x`` as unsigned integers of its item size.

    Equal bit patterns compare equal, unlike float ``==``, which merges
    ``-0.0`` with ``0.0`` and never matches a NaN.
    """
    size = x.dtype.itemsize
    if size in (1, 2, 4, 8):
        return x.view(f"u{size}")
    return np.ascontiguousarray(x).view(np.uint8)


def b_digest(b: np.ndarray) -> str:
    """Content digest of an operand: dtype + shape + bytes, blake2b-16.

    Equal arrays (same dtype, shape and element bytes) digest equally even
    when they are distinct objects or non-contiguous views.

    Interned: the blake2b runs once per distinct content.  The table is
    keyed on dtype, shape and a strided sample of the elements, and a B
    reuses a stored digest only if its bit patterns equal the stored
    private copy's, so unequal bits never share a digest even when their
    samples collide, and mutating a B after digesting it cannot poison
    the table.  The table is an LRU bounded by :data:`_INTERN_BYTES`
    total bytes; a B larger than the bound is digested and not kept.
    Counts ``core/batched/b_intern/{hits,misses,evictions}`` in the
    ambient :mod:`repro.obs` registry.
    """
    global _interned_bytes
    key = (b.dtype, b.shape, _fingerprint(b))
    metrics = _obs_current()
    entries = _interned.get(key)
    if entries is not None:
        bits = _bits(b)
        for copy, digest in entries:
            if np.array_equal(bits, _bits(copy)):
                _interned.move_to_end(key)
                if metrics is not None:
                    metrics.counter("core/batched/b_intern/hits").inc()
                return digest
    if metrics is not None:
        metrics.counter("core/batched/b_intern/misses").inc()
    copy = b.copy(order="C")
    digest = _blake2b(copy)
    if copy.nbytes > _INTERN_BYTES:
        return digest
    copy.flags.writeable = False
    _interned.setdefault(key, []).append((copy, digest))
    _interned.move_to_end(key)
    _interned_bytes += copy.nbytes
    while _interned_bytes > _INTERN_BYTES:
        _key, evicted = _interned.popitem(last=False)
        _interned_bytes -= sum(c.nbytes for c, _d in evicted)
        if metrics is not None:
            metrics.counter("core/batched/b_intern/evictions").inc(len(evicted))
    return digest


def clear_interned() -> None:
    """Drop every interned B (tests and cold-start measurements)."""
    global _interned_bytes
    _interned.clear()
    _interned_bytes = 0


@dataclass
class GroupedGemmResult:
    """One grouped call: many (A_i, C_i) against a shared B."""

    shape: GemmShape          # the stacked (sum M_i) x N x K problem
    n_items: int
    result: GemmResult

    @property
    def seconds(self) -> float:
        return self.result.seconds

    @property
    def gflops(self) -> float:
        return self.result.gflops


def grouped_gemm(
    a_blocks: list[np.ndarray] | None,
    b: np.ndarray | None,
    c_blocks: list[np.ndarray] | None,
    *,
    m_blocks: list[int] | None = None,
    n: int | None = None,
    k: int | None = None,
    machine: MachineConfig | None = None,
    timing: str = "auto",
) -> GroupedGemmResult:
    """Run ``C_i += A_i @ B`` for all i as one stacked GEMM.

    Either pass real operands (``a_blocks``/``b``/``c_blocks``) or, for a
    timing-only estimate, pass ``m_blocks``/``n``/``k``.
    """
    machine = machine or default_machine()
    if a_blocks is not None:
        if b is None or c_blocks is None or len(a_blocks) != len(c_blocks):
            raise PlanError("grouped_gemm needs matching a_blocks/c_blocks and b")
        if not a_blocks:
            raise ShapeError("empty group")
        k_, n_ = b.shape
        for a_i, c_i in zip(a_blocks, c_blocks):
            if a_i.shape[1] != k_ or c_i.shape[1] != n_ or a_i.shape[0] != c_i.shape[0]:
                raise PlanError(
                    f"group member shapes A{a_i.shape} C{c_i.shape} do not "
                    f"match B{b.shape}"
                )
        stacked_a = np.ascontiguousarray(np.vstack(a_blocks))
        stacked_c = np.ascontiguousarray(np.vstack(c_blocks))
        total_m = stacked_a.shape[0]
        result = ftimm_gemm(
            total_m, n_, k_, a=stacked_a, b=b, c=stacked_c,
            machine=machine, timing=timing,
        )
        row = 0
        for c_i in c_blocks:
            rows = c_i.shape[0]
            c_i[:, :] = stacked_c[row : row + rows]
            row += rows
        return GroupedGemmResult(
            shape=GemmShape(total_m, n_, k_), n_items=len(a_blocks), result=result
        )

    if m_blocks is None or n is None or k is None:
        raise PlanError("pass operands, or m_blocks + n + k for timing-only")
    if not m_blocks:
        raise ShapeError("empty group")
    total_m = sum(m_blocks)
    result = ftimm_gemm(total_m, n, k, machine=machine, timing=timing)
    return GroupedGemmResult(
        shape=GemmShape(total_m, n, k), n_items=len(m_blocks), result=result
    )


def naive_batch_seconds(
    shapes: list[GemmShape],
    *,
    machine: MachineConfig | None = None,
) -> float:
    """Modeled time of issuing the batch one GEMM call at a time."""
    machine = machine or default_machine()
    return sum(
        ftimm_gemm(s.m, s.n, s.k, machine=machine, timing="analytic").seconds
        for s in shapes
    )
