"""Shared machinery for lowering GEMM drivers to op streams.

The three drivers (TGEMM, M-parallel, K-parallel) differ in loop structure
but share everything else: tile buffer allocation against the capacity-
checked :class:`~repro.hw.cluster.ClusterSpaces`, DMA descriptor creation,
functional copy-in/copy-out closures, cooperative (split-across-cores)
loads of shared GSM tiles, and round-robin chunk assignment.

In *timing-only* mode (``data=None``) buffers are unbacked and closures are
omitted — the emitted plan carries only geometry and cycle counts, so
multi-gigabyte problems lower cheaply.

Otherwise the closures are *late-bound*: they capture tile views and slice
bounds only, and look up the operands, the fault injector and the kernel
mode on the context when they run.  One lowered plan is therefore a
reusable program — :meth:`LoweringContext.binding` swaps in a call's
operands — and its tiles are views into the shared on-chip scratch arena
(:func:`~repro.hw.cluster.scratch_arena`), so the program holds no
operand or tile memory of its own.  ``data=`` at build time is the
one-shot case: the context starts bound to it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from ..errors import InputError, PlanError
from ..hw.cluster import ClusterSpaces, scratch_arena
from ..hw.config import ClusterConfig
from ..hw.dma import DmaDescriptor
from ..hw.memory import Buffer, MemKind
from ..kernels.registry import KernelRegistry, registry_for
from .blocking import DTYPE_SIZES
from .shapes import GemmShape

FP32 = 4
DTYPE_NUMPY = {"f32": np.float32, "f64": np.float64}


def block_ranges(total: int, block: int) -> Iterator[tuple[int, int, int]]:
    """Yield ``(index, start, extent)`` for blocking ``total`` by ``block``."""
    if block < 1:
        raise PlanError(f"block size must be >= 1, got {block}")
    index = 0
    start = 0
    while start < total:
        yield index, start, min(block, total - start)
        index += 1
        start += block


def chunks_for_core(total: int, block: int, core: int, n_cores: int):
    """Round-robin assignment of blocked chunks to one core."""
    for index, start, extent in block_ranges(total, block):
        if index % n_cores == core:
            yield index, start, extent


@dataclass
class GemmOperands:
    """The DDR-resident operands of one GEMM call (functional mode)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @classmethod
    def check(cls, shape: GemmShape, a, b, c, dtype: str = "f32") -> "GemmOperands":
        """Validate operands at the API boundary.

        Raises :class:`~repro.errors.InputError` (a :class:`PlanError`
        subclass) for anything unusable: non-array operands, wrong rank,
        wrong dtype, shape mismatches against ``shape``, and non-finite
        entries in A or B — a NaN/Inf input would otherwise poison the
        whole result and defeat the ABFT checksums, which must assume
        finite inputs.
        """
        expected = DTYPE_NUMPY[dtype]
        for name, arr in (("A", a), ("B", b), ("C", c)):
            if not isinstance(arr, np.ndarray):
                raise InputError(
                    f"{name} must be a numpy array, got {type(arr).__name__}"
                )
            if arr.ndim != 2:
                raise InputError(f"{name} must be 2-D, got {arr.ndim}-D")
            if arr.dtype != expected:
                raise InputError(
                    f"{name} must be {np.dtype(expected).name}, got {arr.dtype}"
                )
        if a.shape != (shape.m, shape.k):
            raise InputError(f"A shape {a.shape} != {(shape.m, shape.k)}")
        if b.shape != (shape.k, shape.n):
            raise InputError(f"B shape {b.shape} != {(shape.k, shape.n)}")
        if c.shape != (shape.m, shape.n):
            raise InputError(f"C shape {c.shape} != {(shape.m, shape.n)}")
        for name, arr in (("A", a), ("B", b)):
            if not np.isfinite(arr).all():
                raise InputError(f"{name} contains NaN or Inf entries")
        return cls(a, b, c)


class LoweringContext:
    """Per-lowering state: spaces, kernel registry, functional binding.

    The binding's ``kernel_exec`` selects how emitted KERNEL closures
    compute: ``"numpy"`` (default, ``c += a @ b``), or
    ``"compiled"``/``"interp"`` to run the generated instruction stream on
    the ISA machine model — ISA-fidelity functional runs at trace-compiled
    or interpreter speed.

    The context is *backed* — it emits closures and arena-backed tiles —
    when built with ``bindable=True``: it lowers a program with nothing
    bound yet, for :meth:`binding` to fill per call.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        shape: GemmShape,
        registry: KernelRegistry | None = None,
        dtype: str = "f32",
        *,
        bindable: bool = False,
    ) -> None:
        self.cluster = cluster
        self.shape = shape
        self.dtype = dtype
        self.esize = DTYPE_SIZES[dtype]
        self.backed = bindable
        self.spaces = ClusterSpaces(
            cluster, arena=scratch_arena(cluster) if bindable else None
        )
        self.registry = registry or registry_for(cluster.core)
        # the binding, set by :meth:`binding` and read by the closures when
        # they run
        self.data: GemmOperands | None = None
        self.kernel_exec = "numpy"
        #: optional :class:`~repro.faults.inject.FaultInjector`; when set,
        #: tile stores and kernel applications route through its guards
        #: (read-back verified copies, ABFT-checked GEMMs).  When ``None``
        #: the fast paths below are plain assignment / ``apply_exec`` —
        #: guaranteeing bit-identical results to a run without faults.
        self.faults = None
        self._views: dict[tuple, np.ndarray] = {}
        self._descs: dict[tuple, DmaDescriptor] = {}
        #: ``id(view) -> (buffer id, row0, row1, col0, col1)`` of every tile
        #: view the closures hold, kept from ``_views`` for
        #: :meth:`compile_flat`
        self._tiles: dict[int, tuple[int, int, int, int, int]] = {}

    @contextmanager
    def binding(
        self, data: GemmOperands, *, faults=None, kernel_exec: str = "numpy"
    ) -> Iterator["LoweringContext"]:
        """Bind one call's operands, injector and kernel mode; the previous
        binding is restored on exit, so no operand outlives its call."""
        if not self.backed:
            raise PlanError(
                f"{self.shape} program was lowered without functional closures"
            )
        if kernel_exec not in ("numpy", "compiled", "interp"):
            raise PlanError(
                f"unknown kernel execution mode {kernel_exec!r}; "
                "expected 'numpy', 'compiled' or 'interp'"
            )
        if data.c.shape != (self.shape.m, self.shape.n):
            raise PlanError(
                f"operands for {data.c.shape[0]}x{data.c.shape[1]} C bound "
                f"to a {self.shape} program"
            )
        saved = self.data, self.faults, self.kernel_exec
        self.data, self.faults, self.kernel_exec = data, faults, kernel_exec
        try:
            yield self
        finally:
            self.data, self.faults, self.kernel_exec = saved

    def finish(self, builder, strategy: str, **meta):
        """Seal the lowering into a :class:`~repro.core.plans.GemmExecution`
        bound to this context, with the on-chip peaks in its ``meta``.

        The build-time memos are dropped: the closures hold what they use.
        Only the window of each tile view is kept, for :meth:`compile_flat`.
        """
        self._tiles = {
            id(view): (buf, row0, row0 + rows, col0, col0 + cols)
            for (buf, row0, col0, rows, cols), view in self._views.items()
        }
        self._views.clear()
        self._descs.clear()
        return builder.finish(
            self.shape,
            strategy,
            self.cluster,
            ctx=self,
            **meta,
            peak_am=max(s.peak_used for s in self.spaces.am),
            peak_sm=max(s.peak_used for s in self.spaces.sm),
            peak_gsm=self.spaces.gsm.peak_used,
        )

    # -- fault-guarded primitives ------------------------------------------

    def store(self, dst: np.ndarray, src: np.ndarray, core: int = 0) -> None:
        """``dst[...] = src``, read-back verified when faults are armed."""
        if self.faults is None:
            dst[...] = src
        else:
            self.faults.guarded_copy(dst, src, core)

    def accumulate(self, dst: np.ndarray, src: np.ndarray, core: int = 0) -> None:
        """``dst += src`` into C, guarded when faults are armed."""
        if self.faults is None:
            dst += src
        else:
            self.faults.guarded_accumulate(dst, src, core)

    def apply_kernel(self, kern, a, b, c, core: int = 0) -> None:
        """Tile GEMM ``c += a @ b``, ABFT-checked when faults are armed."""
        if self.faults is None:
            kern.apply_exec(a, b, c, self.kernel_exec)
        else:
            self.faults.guarded_gemm(kern, a, b, c, self.kernel_exec, core)

    # -- buffers -----------------------------------------------------------

    def alloc(
        self,
        kind: MemKind,
        core: int,
        rows: int,
        cols: int,
        label: str,
        *,
        slots: int = 1,
    ) -> list[Buffer]:
        """Allocate ``slots`` identical tile buffers (ping-pong pairs)."""
        space = self.spaces.space(kind, core)
        return [
            space.alloc(
                (rows, cols),
                DTYPE_NUMPY[self.dtype],
                label=f"{label}[{s}]" if slots > 1 else label,
            )
            for s in range(slots)
        ]

    def tile(
        self, buf: Buffer, rows: int, cols: int, row0: int = 0, col0: int = 0
    ) -> np.ndarray:
        """The ``[row0:+rows, col0:+cols]`` window of a backed tile; one
        view object per distinct window, shared by the ops that use it."""
        key = (id(buf), row0, col0, rows, cols)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = buf.array()[
                row0 : row0 + rows, col0 : col0 + cols
            ]
        return view

    # -- functional closures -------------------------------------------------
    #
    # Each returns ``None`` for an unbacked context.  Operands are named
    # ("a", "b" or "c") and sliced from the binding when the op runs.

    def load(
        self, buf: Buffer, operand: str, row0: int, col0: int, rows: int,
        cols: int, core: int, *, tile_row0: int = 0,
    ) -> Callable[[], None] | None:
        """DDR -> tile: ``tile[tile_row0:+rows, :cols] =
        <operand>[row0:+rows, col0:+cols]`` of the bound call."""
        if not self.backed:
            return None
        return partial(
            self._load, self.tile(buf, rows, cols, tile_row0), operand,
            slice(row0, row0 + rows), slice(col0, col0 + cols), core,
        )

    def unload(
        self, buf: Buffer, row0: int, col0: int, rows: int, cols: int, core: int
    ) -> Callable[[], None] | None:
        """Tile -> DDR: ``c[row0:+rows, col0:+cols] = tile[:rows, :cols]``."""
        if not self.backed:
            return None
        return partial(
            self._unload, self.tile(buf, rows, cols),
            slice(row0, row0 + rows), slice(col0, col0 + cols), core,
        )

    def move(
        self, dst: Buffer, src: Buffer, rows: int, cols: int, core: int,
        *, dst_row0: int = 0, src_row0: int = 0, src_col0: int = 0,
    ) -> Callable[[], None] | None:
        """On-chip tile -> tile copy (e.g. GSM panel into an AM tile)."""
        if not self.backed:
            return None
        return partial(
            self.store, self.tile(dst, rows, cols, dst_row0),
            self.tile(src, rows, cols, src_row0, src_col0), core,
        )

    def kernel_run(
        self, kern, a: Buffer, b: Buffer, c: Buffer, m: int, n: int, k: int,
        core: int, *, c_row0: int = 0,
    ) -> Callable[[], None] | None:
        """``c[c_row0:+m, :n] += a[:m, :k] @ b[:k, :n]`` on tiles."""
        if not self.backed:
            return None
        return partial(
            self.apply_kernel, kern, self.tile(a, m, k), self.tile(b, k, n),
            self.tile(c, m, n, c_row0), core,
        )

    def _load(self, dst, operand: str, rows: slice, cols: slice, core: int) -> None:
        src = getattr(self.data, operand)[rows, cols]
        if self.faults is None:
            dst[...] = src
        else:
            self.faults.guarded_copy(dst, src, core)

    def _unload(self, src, rows: slice, cols: slice, core: int) -> None:
        dst = self.data.c[rows, cols]
        if self.faults is None:
            dst[...] = src
        else:
            self.faults.guarded_copy(dst, src, core)

    # -- the flat program ------------------------------------------------------
    #
    # On a clean NumPy call a DMA is an exact copy, so a tile only mirrors
    # an operand window.  ``compile_flat`` follows those mirrors through
    # the op list once and keeps just the kernels, reading A and B in place
    # and accumulating straight into C; ``run_flat`` replays them.

    def can_run_flat(self) -> bool:
        """Whether the bound call may run the flat program.

        It needs no fault injector (a fault plan that cannot strike the
        functional run binds none) and NumPy kernels; C-contiguous operands
        (another layout of A or B changes the host BLAS bits, and C's
        stacked tiles must reshape as views); and a C sharing no memory
        with A or B: the op list reads A and B from tile snapshots, which
        an aliased C would make a different computation.
        """
        d = self.data
        return (
            self.faults is None
            and self.kernel_exec == "numpy"
            and d is not None
            and d.a.flags.c_contiguous
            and d.b.flags.c_contiguous
            and d.c.flags.c_contiguous
            and not np.may_share_memory(d.c, d.a)
            and not np.may_share_memory(d.c, d.b)
        )

    def compile_flat(self, ops: list) -> tuple:
        """The kernel groups of ``ops`` (in ``seq`` order), or ``()`` when
        the op list cannot be shown equal to them.

        Each tile buffer holds at most one *mirror* ``[row0, row1, col0,
        col1, operand, row offset, col offset, dirty]``: its window
        ``[row0:row1, col0:col1]`` equals the operand's, shifted by the
        offsets.  A load records a mirror, a move forwards one, and a load
        of the next rows of a mirror extends it (cooperative fills).  A
        kernel must read mirrors of A and B and accumulate into a mirror of
        C, which it marks dirty; unloading that whole mirror to its own
        window makes the load/unload pair an in-place accumulation.  One C
        window has at most one mirror at a time, and a dirty mirror must be
        unloaded before it is overwritten or the program ends.  Any other
        closure (K-parallel's fill and reduction) rejects the program.

        Each kernel keeps its tile shape and its place in the order;
        consecutive kernels on one shape and one B window, whose A and C
        rows follow on, form one group run as a single stacked matmul.
        Tile shapes are validated here, once, instead of per call.  The
        kernel path is written out inline because compiling must cost no
        more than one replay of the op list.
        """
        tiles = self._tiles
        held: dict[int, list] = {}  # buffer id -> its mirror
        c_held: dict[int, list] = {}  # the same, for mirrors of C only
        steps: list[list] = []
        step = None

        def find(view, operand):
            buf, r0, r1, c0, c1 = tiles[id(view)]
            seg = held.get(buf)
            if (seg is None or seg[4] != operand or r0 < seg[0]
                    or seg[1] < r1 or c0 < seg[2] or seg[3] < c1):
                return None
            return seg, r0 + seg[5], c0 + seg[6]

        def put(view, operand: str, row: int, col: int) -> bool:
            buf, r0, r1, c0, c1 = tiles[id(view)]
            dr, dc = row - r0, col - c0
            seg = held.get(buf)
            if seg is not None and seg[7]:
                return False  # an accumulation the op list discards
            if operand == "c" and any(
                s is not seg
                and s[0] + s[5] < r1 + dr and r0 + dr < s[1] + s[5]
                and s[2] + s[6] < c1 + dc and c0 + dc < s[3] + s[6]
                for s in c_held.values()
            ):
                return False  # a second mirror of one C window
            if (seg is not None and seg[1] == r0 and seg[2] == c0
                    and seg[3] == c1 and seg[4] == operand and seg[5] == dr
                    and seg[6] == dc):
                seg[1] = r1  # the next rows of a cooperative fill
                return True
            held[buf] = new = [r0, r1, c0, c1, operand, dr, dc, False]
            if operand == "c":
                c_held[buf] = new
            elif seg is not None and seg[4] == "c":
                del c_held[buf]
            return True

        kernel, load = LoweringContext.apply_kernel, LoweringContext._load
        move, unload = LoweringContext.store, LoweringContext._unload
        for op in ops:
            run = op.run
            if run is None:
                continue
            fn = getattr(getattr(run, "func", None), "__func__", None)
            if fn is kernel:
                kern, a, b, c, _core = run.args
                spec = kern.spec
                m, n, k = spec.m_s, spec.n_a, spec.k_a
                buf, r0, r1, c0, c1 = tiles[id(a)]
                sa = held.get(buf)
                if r1 - r0 != m or c1 - c0 != k:
                    kern.check_tiles(a.shape, b.shape, c.shape)
                if (sa is None or sa[4] != "a" or r0 < sa[0] or sa[1] < r1
                        or c0 < sa[2] or sa[3] < c1):
                    return ()
                ar, ac = r0 + sa[5], c0 + sa[6]
                buf, r0, r1, c0, c1 = tiles[id(b)]
                sb = held.get(buf)
                if r1 - r0 != k or c1 - c0 != n:
                    kern.check_tiles(a.shape, b.shape, c.shape)
                if (sb is None or sb[4] != "b" or r0 < sb[0] or sb[1] < r1
                        or c0 < sb[2] or sb[3] < c1):
                    return ()
                br, bc = r0 + sb[5], c0 + sb[6]
                buf, r0, r1, c0, c1 = tiles[id(c)]
                sc = held.get(buf)
                if r1 - r0 != m or c1 - c0 != n:
                    kern.check_tiles(a.shape, b.shape, c.shape)
                if (sc is None or sc[4] != "c" or r0 < sc[0] or sc[1] < r1
                        or c0 < sc[2] or sc[3] < c1):
                    return ()
                cr, cc = r0 + sc[5], c0 + sc[6]
                sc[7] = True
                if m == 1 or n == 1:
                    # NumPy runs a one-row or one-column product as a BLAS
                    # matrix-vector call, whose bits depend on the operand
                    # strides: stage it through the op list's own tiles
                    step = [kern, 1, ar, ac, br, bc, cr, cc, (a, b)]
                    steps.append(step)
                elif (step is not None and step[0] is kern and step[8] is None
                        and step[2] + step[1] * m == ar and step[3] == ac
                        and step[4] == br and step[5] == bc
                        and step[6] + step[1] * m == cr and step[7] == cc):
                    step[1] += 1
                else:
                    step = [kern, 1, ar, ac, br, bc, cr, cc, None]
                    steps.append(step)
            elif fn is load:
                dst, operand, rows, cols, _core = run.args
                if not put(dst, operand, rows.start, cols.start):
                    return ()
            elif fn is move:
                dst, src, _core = run.args
                found = find(src, "a") or find(src, "b")
                if found is None or not put(dst, found[0][4], *found[1:]):
                    return ()
            elif fn is unload:
                src, rows, cols, _core = run.args
                found = find(src, "c")
                if (found is None or found[1:] != (rows.start, cols.start)
                        or found[0][:4] != list(tiles[id(src)][1:])):
                    return ()
                found[0][7] = False
            else:
                return ()
        if any(seg[7] for seg in c_held.values()):
            return ()

        groups = []
        for kern, count, ar, ac, br, bc, cr, cc, staged in steps:
            m, n, k = kern.spec.m_s, kern.spec.n_a, kern.spec.k_a
            rows = count * m
            groups.append((
                (slice(ar, ar + rows), slice(ac, ac + k)),
                (slice(br, br + k), slice(bc, bc + n)),
                (slice(cr, cr + rows), slice(cc, cc + n)),
                ((count, m, k), (count, m, n)) if count > 1 else None,
                staged,
            ))
        return tuple(groups)

    def run_flat(self, groups: tuple) -> None:
        """Run :meth:`compile_flat`'s groups on the bound operands.

        A group of one is the kernel's ``c += a @ b`` on operand views; a
        longer group stacks its tiles as strided 3-D views, and NumPy's
        matmul still calls the host BLAS once per tile on the same shape.
        A staged group copies its A and B windows into the op list's tiles
        first.
        """
        a, b, c = self.data.a, self.data.b, self.data.c
        for a_win, b_win, c_win, stack, staged in groups:
            c_tile = c[c_win]
            if stack is not None:
                c_tile = c_tile.reshape(stack[1])
                c_tile += a[a_win].reshape(stack[0]) @ b[b_win]
            elif staged is not None:
                a_tile, b_tile = staged
                a_tile[...] = a[a_win]
                b_tile[...] = b[b_win]
                c_tile += a_tile @ b_tile
            else:
                c_tile += a[a_win] @ b[b_win]

    # -- descriptors ---------------------------------------------------------

    def desc(
        self, src: MemKind, dst: MemKind, rows: int, cols: int, tag: str
    ) -> DmaDescriptor:
        """A (frozen, hence shared) descriptor per distinct transfer."""
        key = (src, dst, rows, cols, tag)
        desc = self._descs.get(key)
        if desc is None:
            desc = self._descs[key] = DmaDescriptor(
                src, dst, rows=rows, row_bytes=cols * self.esize, tag=tag
            )
        return desc

    # -- cooperative GSM fills -------------------------------------------------

    def split_rows(self, rows: int) -> list[tuple[int, int, int]]:
        """Split ``rows`` as evenly as possible across cores.

        Returns ``(core, start, extent)`` triples; cores with no share are
        omitted.  Used for loading shared GSM tiles (A_g in Alg. 1, B_g in
        Alg. 4, C_g in Alg. 5) with all DMA engines cooperating.
        """
        n = self.cluster.n_cores
        base, rem = divmod(rows, n)
        out = []
        start = 0
        for core in range(n):
            extent = base + (1 if core < rem else 0)
            if extent > 0:
                out.append((core, start, extent))
            start += extent
        return out
