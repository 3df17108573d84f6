"""A GEMM algorithm's loop nest, written once as data.

A :class:`Schedule` is pure geometry: nested block loops holding the
DMAs, kernel calls, barriers and (Alg. 5) the partial zeroing and
reduction, plus the on-chip tiles they use -- no buffers, no closures.
Each algorithm module builds one (``schedule_tgemm``, ``schedule_m``,
``schedule_k``), and two readers walk it:
:func:`repro.core.lowering.expand` emits the op streams every executor
runs, and :func:`repro.executor.analytic.evaluate` times it in closed
form.  Both therefore see the same chunking, the same fill/compute/store
order and the same reduction.

Steps name loop variables: ``rows``/``cols`` are those loops' current
blocks, whose origin in the GEMM is the sum of the enclosing blocks'
starts.  Kernels compute ``C_a += A_s @ B_a`` on the tiles of those
names.
"""

from __future__ import annotations

from functools import partial
from typing import Any, NamedTuple

from ..hw.memory import MemKind

DDR, GSM, AM, SM = MemKind.DDR, MemKind.GSM, MemKind.AM, MemKind.SM


class Tile(NamedTuple):
    """``slots`` (2: ping-pong) ``rows x cols`` buffers: one set in GSM,
    or one per core in AM or SM."""

    name: str
    kind: MemKind
    rows: int
    cols: int
    slots: int = 1


class Loop(NamedTuple):
    """``body`` once per block of ``axes``, each ``(variable, total,
    plan field)``: ``total`` is ``"m"``, ``"n"``, ``"k"`` or an enclosing
    variable (its current extent).  Several axes nest, first outermost,
    as one loop, and none blocks another of the same loop.  ``deal`` deals the blocks round-robin over the cores;
    ``overlap`` double-buffers: block ``i + 1``'s leading DMA overlaps
    the rest of block ``i``."""

    axes: tuple[tuple[str, str, str], ...]
    body: tuple
    deal: bool = False
    overlap: bool = False


class Dma(NamedTuple):
    """A ``rows x cols`` transfer ``tag`` = ``"<from>-><to>"``, each side
    an operand (``A``, ``B``, ``C`` in DDR) or a :class:`Tile`.

    Its window in an operand sits at the ``rows`` and ``cols`` blocks'
    origins; in a tile it is filled from, at those origins less the
    tile's.  A GSM fill is split over every core's engine.  The
    destination slot is loop ``slot``'s block index (counted per core
    with ``per_core``) modulo the tile's slots.
    """

    tag: str
    src: MemKind
    dst: MemKind
    rows: str
    cols: str
    slot: str | None = None
    per_core: bool = False


class Kernel(NamedTuple):
    """A ``rows x cols x depth`` micro-kernel call at ``rows``'s offset
    in the C tile."""

    rows: str
    cols: str
    depth: str


class Zero(NamedTuple):
    """Zero every core's ``C_a`` partial (a VPU store pass in AM)."""

    rows: str
    cols: str


class Sync(NamedTuple):
    """A cluster barrier; ``tag`` formats with the block starts.  With
    ``rows``/``cols`` it is Alg. 5's reduction of every core's ``C_a``
    partial through GSM into C at those blocks' origins."""

    tag: str
    rows: str | None = None
    cols: str | None = None


class Floor(NamedTuple):
    """A per-core region no faster than its DDR bytes at the core's
    bandwidth share (a timing bound: lowering emits the body as is)."""

    body: tuple


class Schedule(NamedTuple):
    """One algorithm's loop nest for one shape and adjusted plan."""

    strategy: str
    shape: Any
    plan: Any
    tiles: tuple[Tile, ...]
    steps: tuple
    #: cores the dealt loop keeps busy
    n_active: int
    #: ``"ftimm"`` (generated) or ``"tgemm"`` (fixed 6x96) kernels
    kernels: str = "ftimm"
    dtype: str = "f32"

    def kernel(self, registry):
        """``(rows, cols, depth) -> MicroKernel`` of this schedule's kind."""
        if self.kernels == "tgemm":
            return registry.tgemm
        return partial(registry.ftimm, dtype=self.dtype)


def zero_cycles(rows: int, cols: int, esize: int, core) -> int:
    """Cycles of a :class:`Zero` pass over a ``rows x cols`` tile."""
    return max(1, rows * cols * esize // core.am_bytes_per_cycle)


def active_cores(n_cores: int, total: int, block: int) -> int:
    """Cores busy when ``total`` is dealt in ``block`` chunks."""
    return min(n_cores, -(-total // block))
