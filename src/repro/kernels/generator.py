"""Automatic generation of micro-kernels (Section IV-A of the paper).

Given a :class:`~repro.kernels.spec.KernelSpec` the generator

1. chooses the unroll factors ``m_u`` (rows per register block) and ``k_u``
   (k-steps kept in independent accumulators) following the paper's rules:

   * ``64 < n_a <= 96``: parallelism across ``n_a`` feeds all three FMAC
     pipes; ``k_u = 1`` and ``m_u`` as large as the register file allows
     when ``m_s >= t_fma``, else ``m_u = m_s`` with ``k_u > 1`` so enough
     independent accumulators exist to hide the FMAC latency;
   * ``n_a <= 64``: per-row FMA parallelism is insufficient, so ``k_u > 1``
     (pairs of k-values are fetched with one SLDW and broadcast with one
     SVBCAST2 — two scalars per cycle, the SPU's ceiling) and ``m_u`` as
     large as registers allow;

2. emits the symbolic instruction stream of Alg. 3 (A-broadcast chain,
   B vector loads, FMA lattice, the ``k_u`` reduction and the C update);

3. software-pipelines the loop body with the modulo scheduler, giving the
   initiation interval II that determines steady-state efficiency, and
   list-schedules setup/teardown;

4. wraps everything in a :class:`MicroKernel` carrying both the functional
   implementations (NumPy fast path and ISA-interpreter path) and the cycle
   model used by the timed executors.

Deviation from the paper's Alg. 3 noted here once: instead of zero-
initializing *all* accumulators and read-modify-writing C afterwards, the
generator loads the existing C tile into the ``ku = 0`` accumulator set and
zero-fills only the ``ku > 0`` copies; the reduction then folds everything
into the loaded values before the store.  This is functionally identical
(C accumulation semantics) and saves one AM pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import KernelError
from ..hw.config import DspCoreConfig
from ..isa.emitter import render_pipeline_table
from ..isa.instructions import Affine, Instr, MemRef, Opcode, fma
from ..isa.interp import run_program
from ..isa.program import KernelProgram, LoopProgram
from ..isa.scheduler import Schedule, schedule_loop, schedule_straightline
from ..isa.units import units_for
from ..isa.validator import validate_program
from .spec import KernelSpec


#: accumulator-independence target: enough FMAs in flight per iteration to
#: cover the FMAC latency on all three pipes.
def _min_fmas_per_iter(core: DspCoreConfig) -> int:
    return core.n_vector_fmac * core.latencies.t_fma


def max_m_u(v_n: int, k_u: int, core: DspCoreConfig) -> int:
    """Largest row unroll fitting the vector register budget.

    Registers per ``m_u``: ``k_u * v_n`` accumulators + ``k_u`` broadcast
    targets; plus ``k_u * v_n`` shared B registers.
    """
    budget = core.usable_vector_regs - k_u * v_n
    per_row = k_u * (v_n + 1)
    return max(1, budget // per_row)


def select_tiling(m_s: int, v_n: int, k_a: int, core: DspCoreConfig) -> tuple[int, int]:
    """Choose ``(m_u, k_u)`` for a kernel of ``m_s`` rows and ``v_n`` vectors."""
    t_fma = core.latencies.t_fma
    if v_n == 3:
        if m_s >= t_fma:
            k_u = 1
        else:
            k_u = 2
            while m_s * k_u * v_n < _min_fmas_per_iter(core) and k_u < 8:
                k_u *= 2
    else:
        k_u = 2
        while min(m_s, max_m_u(v_n, k_u, core)) * k_u * v_n < _min_fmas_per_iter(
            core
        ) and k_u < 8:
            k_u *= 2
    while k_u > 1 and k_u >= 2 * k_a:
        k_u //= 2
    m_u = min(m_s, max_m_u(v_n, k_u, core))
    return m_u, k_u


@dataclass
class BlockInfo:
    """Generator decisions for one row block, for reports and tests."""

    row0: int
    m_u: int
    k_u: int
    trip: int
    ii: int
    setup_cycles: int
    body_cycles: int
    teardown_cycles: int

    @property
    def cycles(self) -> int:
        return self.setup_cycles + self.body_cycles + self.teardown_cycles


@dataclass
class MicroKernel:
    """A generated (or TGEMM-style fixed) micro-kernel.

    Functional semantics: ``C[:m_s, :n_a] += A[:m_s, :k_a] @ B[:k_a, :n_a]``
    in the spec's precision.  ``cycles`` is the modeled time on one core;
    ``compute_n``/``compute_k`` are the *padded* extents actually processed
    (they exceed ``spec.n_a``/``spec.k_a`` for TGEMM's implicit padding).
    """

    spec: KernelSpec
    core: DspCoreConfig
    program: KernelProgram
    body_schedules: list[Schedule]
    setup_schedules: list[Schedule]
    teardown_schedules: list[Schedule]
    blocks: list[BlockInfo]
    cycles: int
    compute_n: int
    compute_k: int
    name: str = "ftimm"
    _interp_cache: dict = field(default_factory=dict, repr=False)

    #: functional execution modes accepted by :meth:`apply_exec`
    EXEC_MODES = ("numpy", "compiled", "interp")

    # -- performance -------------------------------------------------------

    @property
    def flops(self) -> int:
        return self.spec.flops

    @property
    def peak_flops_per_cycle(self) -> int:
        """Core peak for this precision (FP64 halves the lane count)."""
        return (
            self.core.n_vector_fmac * self.spec.lanes * self.core.flops_per_lane
        )

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the core's (per-precision) peak."""
        return self.flops / (self.cycles * self.peak_flops_per_cycle)

    @property
    def gflops(self) -> float:
        return self.flops / (self.cycles / self.core.clock_hz) / 1e9

    @property
    def ii(self) -> int:
        """Initiation interval of the (first) steady-state loop."""
        return self.body_schedules[0].ii

    # -- functional execution ----------------------------------------------

    def check_tiles(self, a_shape, b_shape, c_shape) -> None:
        """Raise :class:`KernelError` unless the tiles fit this kernel."""
        m, n, k = self.spec.m_s, self.spec.n_a, self.spec.k_a
        if a_shape != (m, k) or b_shape != (k, n) or c_shape != (m, n):
            raise KernelError(
                f"kernel {self.spec}: got A{a_shape} B{b_shape} C{c_shape}"
            )

    def apply(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """NumPy fast path: ``c += a @ b`` (in place)."""
        self.check_tiles(a.shape, b.shape, c.shape)
        c += a @ b

    def apply_isa(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        mode: str = "compiled",
    ) -> None:
        """Execute the generated instruction stream on the ISA machine model.

        ``mode="compiled"`` (default) runs the trace-compiled program
        (:mod:`repro.isa.compile`); ``mode="interp"`` forces the reference
        interpreter.  Both are bit-identical; used by tests to prove the
        generated code equals ``a @ b``.
        """
        m, n = self.spec.m_s, self.spec.n_a
        k = self.spec.k_a
        dt = self.spec.np_dtype
        a_p = np.zeros((m, self.compute_k), dtype=dt)
        a_p[:, :k] = a
        b_p = np.zeros((self.compute_k, self.compute_n), dtype=dt)
        b_p[:k, :n] = b
        c_p = np.zeros((m, self.compute_n), dtype=dt)
        c_p[:, :n] = c
        run_program(self.program, {"A": a_p, "B": b_p, "C": c_p}, mode=mode)
        c[:, :] = c_p[:, :n]

    def apply_exec(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray, mode: str = "numpy"
    ) -> None:
        """Dispatch a functional kernel application by execution mode.

        ``"numpy"`` is the fast path (``c += a @ b``); ``"compiled"`` and
        ``"interp"`` run the generated instruction stream for ISA fidelity.
        """
        if mode == "numpy":
            self.apply(a, b, c)
        elif mode in ("compiled", "interp"):
            self.apply_isa(a, b, c, mode=mode)
        else:
            raise KernelError(
                f"unknown kernel execution mode {mode!r}; "
                f"expected one of {self.EXEC_MODES}"
            )

    # -- introspection -------------------------------------------------------

    def pipeline_table(self, block: int = 0) -> str:
        info = self.blocks[block]
        title = (
            f"Micro-kernel {self.spec} ({self.name}): block m_u={info.m_u}, "
            f"k_u={info.k_u}, II={info.ii}"
        )
        return render_pipeline_table(self.body_schedules[block], title)

    def registers_used(self) -> tuple[int, int]:
        return self.program.registers_used()


# ---------------------------------------------------------------------------
# instruction emission
# ---------------------------------------------------------------------------


def _emit_c_row_load(
    instrs: list[Instr], row: int, mu: int, v_n: int, lanes: int, reg: str
) -> None:
    """Load one C row (v_n vectors) into the ku=0 accumulators."""
    col = 0
    remaining = v_n
    while remaining >= 2:
        instrs.append(
            Instr(
                Opcode.VLDDW,
                dsts=(f"{reg}0_{mu}_{col // lanes}", f"{reg}0_{mu}_{col // lanes + 1}"),
                mem=MemRef("C", Affine(row), Affine(col)),
                tag="cload",
            )
        )
        col += 2 * lanes
        remaining -= 2
    if remaining:
        instrs.append(
            Instr(
                Opcode.VLDW,
                dsts=(f"{reg}0_{mu}_{col // lanes}",),
                mem=MemRef("C", Affine(row), Affine(col)),
                tag="cload",
            )
        )


def _emit_c_row_store(
    instrs: list[Instr], row: int, mu: int, v_n: int, lanes: int
) -> None:
    col = 0
    remaining = v_n
    while remaining >= 2:
        instrs.append(
            Instr(
                Opcode.VSTDW,
                srcs=(f"vc0_{mu}_{col // lanes}", f"vc0_{mu}_{col // lanes + 1}"),
                mem=MemRef("C", Affine(row), Affine(col)),
                tag="cstore",
            )
        )
        col += 2 * lanes
        remaining -= 2
    if remaining:
        instrs.append(
            Instr(
                Opcode.VSTW,
                srcs=(f"vc0_{mu}_{col // lanes}",),
                mem=MemRef("C", Affine(row), Affine(col)),
                tag="cstore",
            )
        )


def _emit_a_broadcast(
    instrs: list[Instr], row: int, mu: int, k_u: int, dtype: str = "f32"
) -> None:
    """A-element load + broadcast chain for one row, covering k_u k-steps.

    FP32, ``k_u == 1``: SLDH -> SFEXTS32L -> SVBCAST (Table I's chain).
    FP32, ``k_u >= 2``: per pair, SLDW -> SFEXTS32L (low) + SBALE2H (high)
    -> SVBCAST2 (both scalars in one slot — Tables II/III's chain).
    FP64: one SLDD -> SVBCAST per k step; the 64-bit broadcast bus moves
    a single double per cycle, so there is no paired form.
    """
    if dtype == "f64":
        for ku in range(k_u):
            sreg = f"s{mu}_{ku}"
            instrs.append(
                Instr(
                    Opcode.SLDD,
                    dsts=(sreg,),
                    mem=MemRef("A", Affine(row), Affine(ku, k_u)),
                    tag="aload",
                )
            )
            instrs.append(
                Instr(Opcode.SVBCAST, dsts=(f"va{mu}_{ku}",), srcs=(sreg,))
            )
        return
    if k_u == 1:
        pair = f"s{mu}_0"
        low = f"sl{mu}_0"
        instrs.append(
            Instr(
                Opcode.SLDH,
                dsts=(pair,),
                mem=MemRef("A", Affine(row), Affine(0, 1)),
                tag="aload",
            )
        )
        instrs.append(Instr(Opcode.SFEXTS32L, dsts=(low,), srcs=(pair,)))
        instrs.append(Instr(Opcode.SVBCAST, dsts=(f"va{mu}_0",), srcs=(low,)))
        return
    for kp in range(k_u // 2):
        pair = f"s{mu}_{kp}"
        low = f"sl{mu}_{kp}"
        high = f"sh{mu}_{kp}"
        instrs.append(
            Instr(
                Opcode.SLDW,
                dsts=(pair,),
                mem=MemRef("A", Affine(row), Affine(2 * kp, k_u)),
                tag="aload",
            )
        )
        instrs.append(Instr(Opcode.SFEXTS32L, dsts=(low,), srcs=(pair,)))
        instrs.append(Instr(Opcode.SBALE2H, dsts=(high,), srcs=(pair,)))
        instrs.append(
            Instr(
                Opcode.SVBCAST2,
                dsts=(f"va{mu}_{2 * kp}", f"va{mu}_{2 * kp + 1}"),
                srcs=(low, high),
            )
        )


def _emit_b_loads(
    instrs: list[Instr], ku: int, k_u: int, v_n: int, lanes: int
) -> None:
    """Vector loads of B row ``kk + ku`` into the vb registers."""
    col = 0
    remaining = v_n
    while remaining >= 2:
        instrs.append(
            Instr(
                Opcode.VLDDW,
                dsts=(f"vb{ku}_{col // lanes}", f"vb{ku}_{col // lanes + 1}"),
                mem=MemRef("B", Affine(ku, k_u), Affine(col)),
                tag="bload",
            )
        )
        col += 2 * lanes
        remaining -= 2
    if remaining:
        instrs.append(
            Instr(
                Opcode.VLDW,
                dsts=(f"vb{ku}_{col // lanes}",),
                mem=MemRef("B", Affine(ku, k_u), Affine(col)),
                tag="bload",
            )
        )


def _build_block(
    row0: int,
    m_u: int,
    k_u: int,
    v_n: int,
    trip: int,
    *,
    load_c: bool,
    lanes: int = 32,
    dtype: str = "f32",
) -> LoopProgram:
    """Emit one row block: setup, one kk-loop body iteration, teardown."""
    setup: list[Instr] = []
    for mu in range(m_u):
        if load_c:
            _emit_c_row_load(setup, row0 + mu, mu, v_n, lanes, "vc")
        else:
            for nn in range(v_n):
                setup.append(
                    Instr(Opcode.VMOVI, dsts=(f"vc0_{mu}_{nn}",), imm=0.0)
                )
        for ku in range(1, k_u):
            for nn in range(v_n):
                setup.append(
                    Instr(Opcode.VMOVI, dsts=(f"vc{ku}_{mu}_{nn}",), imm=0.0)
                )

    body: list[Instr] = []
    for mu in range(m_u):
        _emit_a_broadcast(body, row0 + mu, mu, k_u, dtype)
    for ku in range(k_u):
        _emit_b_loads(body, ku, k_u, v_n, lanes)
    for mu in range(m_u):
        for ku in range(k_u):
            for nn in range(v_n):
                body.append(
                    fma(f"vc{ku}_{mu}_{nn}", f"va{mu}_{ku}", f"vb{ku}_{nn}")
                )
    body.append(Instr(Opcode.SBR, tag="loop"))

    teardown: list[Instr] = []
    for ku in range(1, k_u):
        for mu in range(m_u):
            for nn in range(v_n):
                acc = f"vc0_{mu}_{nn}"
                teardown.append(
                    Instr(
                        Opcode.VADDS32,
                        dsts=(acc,),
                        srcs=(acc, f"vc{ku}_{mu}_{nn}"),
                        tag="reduce",
                    )
                )
    for mu in range(m_u):
        _emit_c_row_store(teardown, row0 + mu, mu, v_n, lanes)
    return LoopProgram(setup, body, trip, teardown, row0=row0, rows=m_u)


# ---------------------------------------------------------------------------
# generation entry points
# ---------------------------------------------------------------------------


def generate_kernel(
    spec: KernelSpec,
    core: DspCoreConfig,
    *,
    name: str = "ftimm",
    force_m_u: int | None = None,
    force_k_u: int | None = None,
    pad_n_to: int | None = None,
    allow_block_adjust: bool = True,
) -> MicroKernel:
    """Generate, schedule and model a micro-kernel for ``spec``.

    ``force_m_u``/``force_k_u``/``pad_n_to`` exist for the TGEMM baseline
    kernel (fixed 6-row, full-width shape with implicit padding) and for
    ablation experiments; normal callers let the selection rules decide.
    """
    lanes = spec.lanes
    v_n = spec.v_n
    compute_n = spec.padded_n
    if pad_n_to is not None:
        if pad_n_to < spec.n_a:
            raise KernelError(f"pad_n_to={pad_n_to} below n_a={spec.n_a}")
        v_n = -(-pad_n_to // lanes)
        compute_n = v_n * lanes
    if v_n > 3:
        raise KernelError(
            f"n_a={spec.n_a} needs {v_n} vector registers per row; "
            f"the hardware supports at most 3 ({3 * lanes} {spec.dtype} lanes)"
        )

    m_u_sel, k_u_sel = select_tiling(spec.m_s, v_n, spec.k_a, core)
    m_u = force_m_u if force_m_u is not None else m_u_sel
    k_u = force_k_u if force_k_u is not None else k_u_sel
    if m_u < 1 or k_u < 1:
        raise KernelError(f"invalid tiling m_u={m_u}, k_u={k_u}")
    if k_u not in (1, 2, 4, 8):
        raise KernelError(f"k_u must be 1, 2, 4 or 8 (SLDW pairs), got {k_u}")

    regs_needed = k_u * v_n + min(spec.m_s, m_u) * k_u * (v_n + 1)
    if regs_needed > core.usable_vector_regs:
        raise KernelError(
            f"tiling m_u={m_u}, k_u={k_u}, v_n={v_n} needs {regs_needed} "
            f"vector registers; only {core.usable_vector_regs} usable"
        )

    k_eff = -(-spec.k_a // k_u) * k_u
    trip = k_eff // k_u

    rows_left = spec.m_s
    row0 = 0
    blocks: list[LoopProgram] = []
    infos: list[BlockInfo] = []
    body_scheds: list[Schedule] = []
    setup_scheds: list[Schedule] = []
    teardown_scheds: list[Schedule] = []
    lat = core.latencies
    total_cycles = core.kernel_call_overhead_cycles

    while rows_left > 0:
        rows = min(m_u, rows_left)
        block_k_u = k_u
        # a short remainder block may need extra accumulator copies to keep
        # the FMAC pipes busy (same rule as the top-level selection)
        while (
            allow_block_adjust
            and rows * block_k_u * v_n < _min_fmas_per_iter(core)
            and block_k_u < 8
            and block_k_u * 2 <= max(2, k_eff)
        ):
            block_k_u *= 2
        block_k_eff = -(-spec.k_a // block_k_u) * block_k_u
        block_trip = block_k_eff // block_k_u
        if block_k_eff > k_eff:
            # the padded tiles are sized for k_eff; don't exceed them
            block_k_u = k_u
            block_trip = trip
        block = _build_block(
            row0, rows, block_k_u, v_n, block_trip,
            load_c=True, lanes=lanes, dtype=spec.dtype,
        )
        blocks.append(block)

        units = units_for(core)
        s_setup = schedule_straightline(block.setup, lat, units)
        s_body = schedule_loop(block.body, lat, units)
        s_teardown = schedule_straightline(block.teardown, lat, units)
        setup_scheds.append(s_setup)
        body_scheds.append(s_body)
        teardown_scheds.append(s_teardown)
        info = BlockInfo(
            row0=row0,
            m_u=rows,
            k_u=block_k_u,
            trip=block_trip,
            ii=s_body.ii,
            setup_cycles=s_setup.total_cycles(1, lat),
            body_cycles=s_body.total_cycles(block_trip, lat),
            teardown_cycles=s_teardown.total_cycles(1, lat),
        )
        infos.append(info)
        total_cycles += info.cycles
        rows_left -= rows
        row0 += rows

    program = KernelProgram(
        blocks,
        meta={
            "name": name,
            "m_u": m_u,
            "k_u": k_u,
            "v_n": v_n,
            "k_eff": k_eff,
            "compute_n": compute_n,
            "dtype": spec.dtype,
            "vector_regs_needed": regs_needed,
        },
    )
    validate_program(
        program, m_s=spec.m_s, k_eff=k_eff, padded_n=compute_n,
        vlanes=lanes,
    )
    return MicroKernel(
        spec=spec,
        core=core,
        program=program,
        body_schedules=body_scheds,
        setup_schedules=setup_scheds,
        teardown_schedules=teardown_scheds,
        blocks=infos,
        cycles=total_cycles,
        compute_n=compute_n,
        compute_k=k_eff,
        name=name,
    )
