"""Batched and grouped GEMM (the FEM / libxsmm use case of the intro).

The paper motivates irregular GEMM with workloads that issue *many* small
multiplications — FEM operator application, per-layer CNN lowering.
Issuing them one `ftimm_gemm` at a time repays the fixed costs (panel
fills, barriers, strategy setup) per call.  Two batching tools:

* :func:`grouped_gemm` — many A/C pairs sharing one B (exactly FEM's
  per-element operator): the A blocks are a *logical* vertical stack, so
  the whole group runs as one tall-and-skinny GEMM; the shared B is cached
  in GSM once instead of once per element block.

* :func:`batched_gemm` — arbitrary ``(a, b, c)`` triples: greedily groups
  items that share the same B, runs each group with :func:`grouped_gemm`,
  and reports the aggregate alongside the modeled time of the naive
  one-call-per-item loop so the grouping win is visible.

Sharing is decided by **content digest** (:func:`b_digest`): two B
arrays that are equal but distinct objects — the normal case for
requests deserialized from a stream — still coalesce.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import PlanError, ShapeError
from ..faults.plan import FaultPlan
from ..hw.config import MachineConfig, default_machine
from .ftimm import GemmResult, ftimm_gemm
from .shapes import GemmShape


def b_digest(b: np.ndarray) -> str:
    """Content digest of an operand: dtype + shape + bytes, blake2b-16.

    Equal arrays (same dtype, shape and element bytes) digest equally even
    when they are distinct objects or non-contiguous views.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(b.dtype).encode())
    h.update(str(b.shape).encode())
    h.update(np.ascontiguousarray(b).tobytes())
    return h.hexdigest()


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


@dataclass
class BatchedGemmResult:
    """Aggregate of a heterogeneous batch."""

    groups: list[GroupedGemmResult] = field(default_factory=list)

    @property
    def n_items(self) -> int:
        return sum(g.n_items for g in self.groups)

    @property
    def seconds(self) -> float:
        return sum(g.seconds for g in self.groups)

    @property
    def total_flops(self) -> int:
        return sum(g.shape.flops for g in self.groups)

    @property
    def gflops(self) -> float:
        return self.total_flops / self.seconds / 1e9 if self.seconds else 0.0


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
    faults: FaultPlan | None = None,
) -> GroupedGemmResult:
    """Run ``C_i += A_i @ B`` for all i as one stacked GEMM.

    Either pass real operands (``a_blocks``/``b``/``c_blocks``) or, for a
    timing-only estimate, pass ``m_blocks``/``n``/``k``.  ``faults`` arms
    seeded fault injection on the stacked run (see :mod:`repro.faults`):
    the group either completes exactly or raises a typed ``FaultError``
    before any ``c_blocks`` entry is written back.
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
            machine=machine, timing=timing, faults=faults,
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
    result = ftimm_gemm(
        total_m, n, k, machine=machine, timing=timing, faults=faults
    )
    return GroupedGemmResult(
        shape=GemmShape(total_m, n, k), n_items=len(m_blocks), result=result
    )


def batched_gemm(
    items: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    *,
    machine: MachineConfig | None = None,
    timing: str = "auto",
) -> BatchedGemmResult:
    """Run a heterogeneous batch, grouping items whose B content is equal."""
    machine = machine or default_machine()
    if not items:
        raise ShapeError("empty batch")
    groups: dict[tuple[str, tuple[int, int]], list[int]] = {}
    for idx, (_a, b, _c) in enumerate(items):
        groups.setdefault((b_digest(b), b.shape), []).append(idx)
    out = BatchedGemmResult()
    for (_bkey, _bshape), indices in groups.items():
        a_blocks = [items[i][0] for i in indices]
        c_blocks = [items[i][2] for i in indices]
        out.groups.append(
            grouped_gemm(
                a_blocks, items[indices[0]][1], c_blocks,
                machine=machine, timing=timing,
            )
        )
    return out


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
