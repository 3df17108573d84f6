"""Kernel program representation and dependence analysis.

A generated micro-kernel is a sequence of :class:`LoopProgram` blocks (one
per ``m_u`` row group, Alg. 3's outer ``mm`` loop).  Each block has:

* ``setup``    — straight-line code run once (C-register init / load),
* ``body``     — one iteration of the software-pipelined ``kk`` loop,
* ``trip``     — number of body iterations (``ceil(k_a / k_u)``),
* ``teardown`` — straight-line code run once (k_u reduction, C update,
  store back to AM).

:func:`build_dependences` derives the register/memory dependence edges the
modulo scheduler needs, including loop-carried (distance-1) edges for
accumulators and register reuse across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import IsaError
from .instructions import Instr


@dataclass(frozen=True)
class DepEdge:
    """``t[dst] >= t[src] + latency - II * distance`` for modulo schedules."""

    src: int
    dst: int
    latency: int
    distance: int  # 0 = same iteration, 1 = next iteration
    kind: str      # "raw" | "war" | "waw" | "mem"


@dataclass
class LoopProgram:
    """One software-pipelined block of a micro-kernel."""

    setup: list[Instr]
    body: list[Instr]
    trip: int
    teardown: list[Instr]
    #: rows of the C tile this block covers, for documentation/debugging.
    row0: int = 0
    rows: int = 0

    def __post_init__(self) -> None:
        if self.trip < 0:
            raise IsaError(f"negative trip count {self.trip}")

    @property
    def n_instructions(self) -> int:
        return (
            len(self.setup)
            + self.trip * len(self.body)
            + len(self.teardown)
        )


@dataclass
class KernelProgram:
    """A complete micro-kernel: one or more row-group blocks.

    ``meta`` carries generator decisions (m_u, k_u per block, register
    counts) so reports and tests can inspect them.
    """

    blocks: list[LoopProgram]
    meta: dict = field(default_factory=dict)

    @property
    def n_instructions(self) -> int:
        return sum(b.n_instructions for b in self.blocks)

    def registers_used(self) -> tuple[int, int]:
        """Peak (scalar, vector) register pressure.

        Blocks execute sequentially and recycle registers, so pressure is
        the per-block distinct-name count maximized over blocks (the
        union across blocks would overstate it).
        """
        max_s = max_v = 0
        for block in self.blocks:
            sregs: set[str] = set()
            vregs: set[str] = set()
            for instr in [*block.setup, *block.body, *block.teardown]:
                for reg in (*instr.dsts, *instr.srcs):
                    (vregs if reg.startswith("v") else sregs).add(reg)
            max_s = max(max_s, len(sregs))
            max_v = max(max_v, len(vregs))
        return max_s, max_v


def _mem_conflict(a: Instr, b: Instr) -> bool:
    """Conservative may-alias: same array and at least one is a store."""
    if a.mem is None or b.mem is None:
        return False
    if a.mem.array != b.mem.array:
        return False
    return a.spec.is_store or b.spec.is_store


def build_dependences(
    instrs: list[Instr],
    latencies,
    *,
    loop: bool,
) -> list[DepEdge]:
    """Register + memory dependence edges over ``instrs``.

    Same-iteration edges run from earlier to later instructions.  With
    ``loop=True``, distance-1 edges are added from every instruction to each
    program-order-earlier-or-equal instruction it conflicts with in the next
    iteration — this is what creates the FMAC-latency recurrence (an
    accumulator's self-edge) that forces ``II >= t_fma`` and motivates the
    paper's m_u / k_u selection rules.
    """
    edges: list[DepEdge] = []
    n = len(instrs)

    def add(src: int, dst: int, lat: int, dist: int, kind: str) -> None:
        edges.append(DepEdge(src, dst, lat, dist, kind))

    # Registers are read at issue and written at write-back (end of the
    # producing instruction's pipeline), as in an exposed-pipeline VLIW.
    # Hence WAR requires t_writer + lat_writer > t_reader, i.e. an edge of
    # latency ``1 - lat(writer)`` (negative slack is real: the new load may
    # issue *before* the last reader as long as its result lands after).
    # WAW requires write-backs in order: latency ``lat(first) - lat(second)
    # + 1``.
    for j in range(n):
        bj = instrs[j]
        lat_j = bj.latency(latencies)
        for i in range(j):
            ai = instrs[i]
            lat_i = ai.latency(latencies)
            if set(ai.writes) & set(bj.reads):
                add(i, j, lat_i, 0, "raw")
            if set(ai.reads) & set(bj.writes):
                add(i, j, 1 - lat_j, 0, "war")
            if set(ai.writes) & set(bj.writes):
                add(i, j, lat_i - lat_j + 1, 0, "waw")
            if _mem_conflict(ai, bj):
                add(i, j, lat_i if ai.spec.is_store else 1, 0, "mem")

    if loop:
        for i in range(n):
            ai = instrs[i]
            lat_i = ai.latency(latencies)
            for j in range(i + 1):
                bj = instrs[j]
                lat_j = bj.latency(latencies)
                if set(ai.writes) & set(bj.reads):
                    add(i, j, lat_i, 1, "raw")
                if set(ai.reads) & set(bj.writes):
                    add(i, j, 1 - lat_j, 1, "war")
                if set(ai.writes) & set(bj.writes):
                    add(i, j, lat_i - lat_j + 1, 1, "waw")
                if _mem_conflict(ai, bj):
                    add(i, j, 1, 1, "mem")
    return edges


def recurrence_mii(edges: list[DepEdge]) -> int:
    """Lower bound on II from dependence cycles.

    Exact enumeration of all cycles is overkill for kernel-sized bodies;
    self-edges (the accumulators) dominate in practice, and two-node cycles
    cover register-reuse patterns.  Longer cycles are handled by the
    scheduler's retry loop, so this is only a starting point.
    """
    mii = 1
    by_pair: dict[tuple[int, int], list[DepEdge]] = {}
    for e in edges:
        by_pair.setdefault((e.src, e.dst), []).append(e)
    for e in edges:
        if e.src == e.dst and e.distance > 0:
            mii = max(mii, -(-e.latency // e.distance))
    for (a, b), fwd in by_pair.items():
        if a == b:
            continue
        back = by_pair.get((b, a))
        if not back:
            continue
        for e1 in fwd:
            for e2 in back:
                dist = e1.distance + e2.distance
                if dist > 0:
                    mii = max(mii, -(-(e1.latency + e2.latency) // dist))
    return mii

