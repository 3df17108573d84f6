"""Execution plans: the op-stream IR shared by all executors.

A GEMM driver (TGEMM / M-parallel / K-parallel) lowers a problem + blocking
plan into one op list per core.  Three op kinds:

* ``DMA``    — a 2-D transfer (descriptor carries geometry and memory
  levels); executes on the core's DMA engine, contending for DDR/GSM
  bandwidth.
* ``KERNEL`` — a micro-kernel invocation (cycle count + flops); executes on
  the core's compute pipeline.
* ``SYNC``   — a cluster-wide synchronization point (barrier or the GSM
  reduction of Alg. 5, which additionally carries a modeled duration).

Ordering semantics:

* ops of one core issue in list order; DMA ops serialize through the
  engine's channels, KERNEL ops through the single compute pipeline;
* ``deps`` are indices into the *same core's* list: the op may not start
  before those complete — this is how ping-pong double buffering is
  expressed (the DMA refilling slot ``s`` depends on the kernel that last
  consumed slot ``s``);
* a SYNC with a given ``sync_id`` must appear in *every* core's stream;
  no core proceeds past it until all cores reach it.

Functional execution is defined by running the ``op.run`` callbacks in
emission order (per-core lists interleaved in a deterministic round-robin
that respects SYNCs) — sequential semantics are valid because the deps
only ever relax ordering, never create it.  A clean call of a cached
program runs the equivalent *flat program* instead (``GemmExecution.flat``,
compiled once from this op list by
:meth:`~repro.core.lowering.LoweringContext.compile_flat`): the kernels
alone, on operand views, in the same order and tile shapes.

A lowered plan is a reusable *program*: its closures resolve the operands,
the fault injector and the kernel mode from the lowering context's binding
(``execution.ctx``) when they run, so one plan serves any number of calls.
"""

from __future__ import annotations

import enum
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from ..errors import PlanError
from ..hw.config import ClusterConfig
from ..hw.dma import DmaDescriptor
from .shapes import GemmShape


class OpKind(enum.Enum):
    DMA = "dma"
    KERNEL = "kernel"
    SYNC = "sync"


@dataclass(slots=True)
class Op:
    kind: OpKind
    core: int
    desc: DmaDescriptor | None = None
    cycles: int = 0
    flops: int = 0
    sync_id: int = -1
    sync_seconds: float = 0.0
    deps: tuple[int, ...] = ()
    run: Callable[[], None] | None = None
    tag: str = ""
    #: global emission order — functional execution replays ops sorted by
    #: this, which is sequentially consistent by construction.
    seq: int = -1

    def validate(self, index: int) -> None:
        if self.kind is OpKind.DMA and self.desc is None:
            raise PlanError(f"DMA op {index} without descriptor")
        if self.kind is OpKind.KERNEL and self.cycles <= 0:
            raise PlanError(f"kernel op {index} with cycles={self.cycles}")
        if self.kind is OpKind.SYNC and self.sync_id < 0:
            raise PlanError(f"sync op {index} without sync_id")
        for d in self.deps:
            if d >= index:
                raise PlanError(f"op {index} depends on later op {d}")


@dataclass
class GemmExecution:
    """A fully lowered plan, ready for any executor."""

    shape: GemmShape
    strategy: str
    cluster: ClusterConfig
    core_ops: list[list[Op]]
    n_syncs: int = 0
    meta: dict = field(default_factory=dict)
    #: the :class:`~repro.core.lowering.LoweringContext` the ``run``
    #: closures resolve operands, faults and kernel mode from
    ctx: Any = field(default=None, repr=False, compare=False)
    #: (ops sorted by ``seq``, op census), computed on first use
    _replay: tuple | None = field(default=None, repr=False, compare=False)
    #: kept by the lowering program cache, so a flat program pays off
    cached: bool = field(default=False, repr=False, compare=False)
    #: the kernel groups of :meth:`~repro.core.lowering.LoweringContext.
    #: compile_flat`: ``None`` until a cached program's first clean call,
    #: ``()`` when it must run on the op list
    flat: tuple | None = field(default=None, repr=False, compare=False)

    def validate(self) -> "GemmExecution":
        if len(self.core_ops) != self.cluster.n_cores:
            raise PlanError(
                f"plan has {len(self.core_ops)} op streams for "
                f"{self.cluster.n_cores} cores"
            )
        # one pass: per-op checks, and each core's sync-id occurrences
        counts = []
        for ops in self.core_ops:
            seen: Counter = Counter()
            for i, op in enumerate(ops):
                op.validate(i)
                if op.kind is OpKind.SYNC:
                    seen[op.sync_id] += 1
            counts.append(seen)
        # every sync id must appear exactly once in every core stream
        for sid in range(self.n_syncs):
            for core, seen in enumerate(counts):
                if seen[sid] != 1:
                    raise PlanError(
                        f"sync {sid} appears {seen[sid]} times on core {core}"
                    )
        return self

    def ordered_ops(self) -> list[Op]:
        """All ops in global emission order (``seq``), sorted once."""
        return self._replay_plan()[0]

    def census(self) -> dict[str, int]:
        """Op counts, DMA bytes and flops, as a functional replay reports
        them (``ops_executed``, ``dma_ops``, ``kernel_ops``, ``sync_ops``,
        ``bytes_moved``, ``flops``); counted once."""
        return self._replay_plan()[1]

    def _replay_plan(self) -> tuple[list[Op], dict[str, int]]:
        if self._replay is None:
            ops = sorted(
                (op for core_ops in self.core_ops for op in core_ops),
                key=lambda op: op.seq,
            )
            kinds = Counter(op.kind for op in ops)
            self._replay = ops, {
                "ops_executed": len(ops),
                "dma_ops": kinds[OpKind.DMA],
                "kernel_ops": kinds[OpKind.KERNEL],
                "sync_ops": kinds[OpKind.SYNC],
                "bytes_moved": self.total_dma_bytes,
                "flops": self.total_flops,
            }
        return self._replay

    # -- aggregate statistics (used by reports and tests) -----------------

    @cached_property
    def total_flops(self) -> int:
        """Kernel flops; summed once, as a lowered program is read-only."""
        return sum(
            op.flops for ops in self.core_ops for op in ops if op.kind is OpKind.KERNEL
        )

    @property
    def total_dma_bytes(self) -> int:
        return sum(
            op.desc.nbytes
            for ops in self.core_ops
            for op in ops
            if op.kind is OpKind.DMA
        )

    @property
    def n_ops(self) -> int:
        return sum(len(ops) for ops in self.core_ops)

    def describe(self) -> str:
        """Human-readable plan summary: per-core load, traffic by route,
        kernel-shape histogram — what a performance engineer reads before
        trusting a lowering."""
        lines = [
            f"plan: {self.strategy} for {self.shape} on "
            f"{self.cluster.n_cores} cores "
            f"({self.n_ops} ops, {self.n_syncs} syncs)"
        ]
        route_bytes: dict[str, int] = {}
        kernel_hist: dict[str, int] = {}
        rows = []
        for core, ops in enumerate(self.core_ops):
            dma = kern = 0
            core_bytes = 0
            cycles = 0
            for op in ops:
                if op.kind is OpKind.DMA and op.desc is not None:
                    dma += 1
                    core_bytes += op.desc.nbytes
                    route = f"{op.desc.src.value}->{op.desc.dst.value}"
                    route_bytes[route] = route_bytes.get(route, 0) + op.desc.nbytes
                elif op.kind is OpKind.KERNEL:
                    kern += 1
                    cycles += op.cycles
                    if op.tag:
                        kernel_hist[op.tag] = kernel_hist.get(op.tag, 0) + 1
            rows.append(
                f"  core{core}: {kern} kernels ({cycles} cycles), "
                f"{dma} DMAs ({core_bytes / 1024:.0f} KiB)"
            )
        lines.extend(rows)
        lines.append("traffic by route:")
        for route, nbytes in sorted(route_bytes.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {route}: {nbytes / 1024:.0f} KiB")
        lines.append("kernels:")
        for tag, count in sorted(kernel_hist.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {tag} x {count}")
        if "peak_am" in self.meta:
            lines.append(
                f"on-chip peaks: AM {self.meta['peak_am'] / 1024:.0f} KiB, "
                f"SM {self.meta.get('peak_sm', 0) / 1024:.0f} KiB, "
                f"GSM {self.meta.get('peak_gsm', 0) / 1024:.0f} KiB"
            )
        return "\n".join(lines)


class OpStreamBuilder:
    """Helper the drivers use to build per-core op lists.

    Tracks op indices so ping-pong dependencies can be expressed by slot:
    ``last_consumer(buffer, slot)`` / ``last_producer(buffer, slot)``.
    """

    def __init__(self, n_cores: int) -> None:
        self.core_ops: list[list[Op]] = [[] for _ in range(n_cores)]
        self._sync_counter = 0
        self._seq = 0
        self._producers: dict[tuple[int, str, int], int] = {}
        self._consumers: dict[tuple[int, str, int], int] = {}

    # -- emission ----------------------------------------------------------

    def dma(
        self,
        core: int,
        desc: DmaDescriptor,
        *,
        buffer: str = "",
        slot: int = 0,
        extra_deps: tuple[int, ...] = (),
        run: Callable[[], None] | None = None,
        tag: str = "",
    ) -> int:
        """Emit a DMA filling ``buffer``/``slot``; waits for its last consumer."""
        deps = list(extra_deps)
        if buffer:
            last_use = self._consumers.get((core, buffer, slot))
            if last_use is not None:
                deps.append(last_use)
        idx = len(self.core_ops[core])
        self.core_ops[core].append(
            Op(
                OpKind.DMA,
                core,
                desc=desc,
                deps=tuple(sorted(set(deps))),
                run=run,
                tag=tag or desc.tag,
                seq=self._next_seq(),
            )
        )
        if buffer:
            self._producers[(core, buffer, slot)] = idx
        return idx

    def kernel(
        self,
        core: int,
        cycles: int,
        flops: int,
        *,
        reads: tuple[tuple[str, int], ...] = (),
        extra_deps: tuple[int, ...] = (),
        run: Callable[[], None] | None = None,
        tag: str = "",
    ) -> int:
        """Emit a kernel call consuming the named (buffer, slot) pairs."""
        deps = list(extra_deps)
        for buffer, slot in reads:
            prod = self._producers.get((core, buffer, slot))
            if prod is not None:
                deps.append(prod)
        idx = len(self.core_ops[core])
        self.core_ops[core].append(
            Op(
                OpKind.KERNEL,
                core,
                cycles=cycles,
                flops=flops,
                deps=tuple(sorted(set(deps))),
                run=run,
                tag=sys.intern(tag),
                seq=self._next_seq(),
            )
        )
        for buffer, slot in reads:
            self._consumers[(core, buffer, slot)] = idx
        return idx

    def consume(self, core: int, buffer: str, slot: int, op_idx: int) -> None:
        """Mark ``op_idx`` as the latest consumer of a buffer slot (e.g. a
        DMA that stores a C tile out consumes that C buffer)."""
        self._consumers[(core, buffer, slot)] = op_idx

    def sync(
        self,
        *,
        seconds: float = 0.0,
        runs: dict[int, Callable[[], None]] | None = None,
        tag: str = "",
    ) -> int:
        """Emit a cluster-wide SYNC into every core stream."""
        sid = self._sync_counter
        self._sync_counter += 1
        for core, ops in enumerate(self.core_ops):
            ops.append(
                Op(
                    OpKind.SYNC,
                    core,
                    sync_id=sid,
                    sync_seconds=seconds,
                    run=(runs or {}).get(core),
                    tag=tag,
                    seq=self._next_seq(),
                )
            )
        return sid

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def finish(
        self,
        shape: GemmShape,
        strategy: str,
        cluster: ClusterConfig,
        *,
        ctx=None,
        **meta,
    ) -> GemmExecution:
        return GemmExecution(
            shape=shape,
            strategy=strategy,
            cluster=cluster,
            core_ops=self.core_ops,
            n_syncs=self._sync_counter,
            meta=meta,
            ctx=ctx,
        ).validate()
