"""Trace compilation of kernel programs to vectorized NumPy closures.

The reference interpreter (:mod:`repro.isa.interp`) executes a loop body
``trip`` times, one dict-dispatched :meth:`MachineState.execute` call per
instruction — faithful, but the dominant cost of every correctness run.
This module compiles each :class:`~repro.isa.program.LoopProgram` body
*once* into a short list of batched NumPy steps: because every memory
operand is affine in the loop counter (``addr(i) = base + i * step``), the
loads of all ``trip`` iterations collapse into one fancy-indexed gather,
and every FMA lattice point into one ``(trip, lanes)`` multiply plus one
sequential accumulation.

Bit-identical semantics are the contract, not a best effort:

* products are computed elementwise exactly as the interpreter computes
  them (IEEE multiplication is deterministic per element, so batching the
  multiplies cannot change a single bit);
* accumulator recurrences (``vc += va * vb`` with the FMA reading and
  writing the same register) are folded with ``np.add.accumulate``, whose
  definition ``r[i] = r[i-1] + x[i]`` is the interpreter's sequential
  order — *not* ``np.sum``, whose pairwise summation would reassociate;
* setup and teardown are straight-line code executed once, so they run on
  the interpreter unchanged.

Any body the compiler cannot prove safe (cross-iteration register
rotation, stores aliasing loads, an opcode outside the supported set)
falls back to the interpreter for that block, so ``mode="compiled"`` is
always available.  The equivalence test suite sweeps the kernel spec grid
asserting byte equality between the two paths.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import IsaError
from ..obs.registry import current as _obs_current
from .instructions import Affine, Instr, MemRef, Opcode
from .program import KernelProgram, LoopProgram

# ---------------------------------------------------------------------------
# symbolic values (compile-time placeholders for per-iteration data)
# ---------------------------------------------------------------------------


class _Val:
    """Compile-time handle for a register's per-iteration value.

    At run time each handle resolves to an ndarray whose leading axis is
    the iteration index: ``(trip,)`` for scalars, ``(trip, 2)`` for pair
    registers, ``(trip, lanes)`` for vectors.  ``kind`` distinguishes the
    shapes so compile-time checks can reject ill-typed programs early
    (falling back to the interpreter, which raises the reference error).
    """

    __slots__ = ("kind", "slot")

    def __init__(self, kind: str, slot: int) -> None:
        self.kind = kind  # "scalar" | "pair" | "bcast" | "vector"
        self.slot = slot  # index into the run-time value table


class _Compiler:
    """Symbolically executes one loop body, emitting batched steps."""

    def __init__(self, block: LoopProgram) -> None:
        self.block = block
        self.steps: list[Callable] = []
        self.n_slots = 0
        self.sregs: dict[str, _Val] = {}
        self.vregs: dict[str, _Val] = {}
        #: registers whose entry value is read before any body write.
        self.entry_sregs: dict[str, int] = {}
        self.entry_vregs: dict[str, int] = {}
        #: accumulator registers: reg -> (entry slot, final slot).
        self.accumulators: dict[str, tuple[int, int]] = {}
        self.acc_written: set[str] = set()

    # -- slot helpers ------------------------------------------------------

    def _new_slot(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def _val(self, kind: str) -> _Val:
        return _Val(kind, self._new_slot())

    # -- reads -------------------------------------------------------------

    def _read_sreg(self, name: str) -> _Val:
        val = self.sregs.get(name)
        if val is None:
            # entry value: loop-invariant scalar taken from machine state.
            slot = self._new_slot()
            self.entry_sregs[name] = slot
            val = _Val("entry_scalar", slot)
            self.sregs[name] = val
        return val

    def _read_vreg(self, name: str) -> _Val:
        val = self.vregs.get(name)
        if val is None:
            slot = self._new_slot()
            self.entry_vregs[name] = slot
            val = _Val("entry_vector", slot)
            self.vregs[name] = val
        return val

    # -- memory ------------------------------------------------------------

    def _gather(self, mem: MemRef, width: int | str) -> int:
        """Emit a batched load of ``width`` consecutive elements per
        iteration; returns the slot holding the ``(trip, width)`` gather.

        ``width`` is an int for scalar/pair loads, or ``"lanes"`` /
        ``"2lanes"`` for vector loads (the lane count depends on the tile
        dtype and is only known at run time).
        """
        slot = self._new_slot()
        array, row, col = mem.array, mem.row, mem.col

        def step(ctx: "_RunContext", *, array=array, row=row, col=col,
                 width=width, slot=slot) -> None:
            tile = ctx.tile(array)
            trip = ctx.trip
            if width == "lanes":
                width = ctx.lanes
            elif width == "2lanes":
                width = 2 * ctx.lanes
            lo_r, hi_r = row.base, row.at(trip - 1)
            if lo_r > hi_r:
                lo_r, hi_r = hi_r, lo_r
            lo_c, hi_c = col.base, col.at(trip - 1)
            if lo_c > hi_c:
                lo_c, hi_c = hi_c, lo_c
            if not (0 <= lo_r and hi_r < tile.shape[0]
                    and 0 <= lo_c and hi_c + width <= tile.shape[1]):
                raise IsaError(
                    f"compiled load from {array}: rows {lo_r}..{hi_r}, "
                    f"cols {lo_c}..{hi_c + width} outside tile {tile.shape}"
                )
            rows = row.base + row.step * ctx.iters
            if col.step == 0:
                if row.step == 0:
                    data = np.broadcast_to(
                        tile[row.base, col.base : col.base + width],
                        (trip, width),
                    )
                else:
                    data = tile[rows, col.base : col.base + width]
            else:
                cols = col.base + col.step * ctx.iters
                data = tile[
                    rows[:, None], cols[:, None] + np.arange(width)[None, :]
                ]
            ctx.values[slot] = data

        self.steps.append(step)
        return slot

    # -- per-opcode compilation -------------------------------------------

    def compile(self) -> "CompiledBlock | None":
        try:
            for instr in self.block.body:
                if not self._compile_instr(instr):
                    return None
        except _Unsupported:
            return None
        return CompiledBlock(self.block, self)

    def _compile_instr(self, instr: Instr) -> bool:
        op = instr.op
        if op is Opcode.SBR:
            return True
        if op is Opcode.SLDH or op is Opcode.SLDD:
            slot = self._gather(instr.mem, 1)
            out = self._val("scalar")

            def step(ctx, *, src=slot, dst=out.slot) -> None:
                ctx.values[dst] = ctx.values[src][:, 0]

            self.steps.append(step)
            self._write_sreg(instr.dsts[0], out)
            return True
        if op is Opcode.SLDW:
            slot = self._gather(instr.mem, 2)
            self._write_sreg(instr.dsts[0], _Val("pair", slot))
            return True
        if op is Opcode.SFEXTS32L:
            src = self._read_sreg(instr.srcs[0])
            if src.kind == "pair":
                out = self._val("scalar")

                def step(ctx, *, s=src.slot, d=out.slot) -> None:
                    ctx.values[d] = ctx.values[s][:, 0]

                self.steps.append(step)
            elif src.kind == "scalar":
                out = src  # pass-through, as in the interpreter
            else:
                raise _Unsupported  # entry scalar: unseen in generated code
            self._write_sreg(instr.dsts[0], out)
            return True
        if op is Opcode.SBALE2H:
            src = self._read_sreg(instr.srcs[0])
            if src.kind != "pair":
                raise _Unsupported  # interpreter raises the reference error
            out = self._val("scalar")

            def step(ctx, *, s=src.slot, d=out.slot) -> None:
                ctx.values[d] = ctx.values[s][:, 1]

            self.steps.append(step)
            self._write_sreg(instr.dsts[0], out)
            return True
        if op is Opcode.SVBCAST or op is Opcode.SVBCAST2:
            for dst, src_name in zip(instr.dsts, instr.srcs):
                src = self._read_sreg(src_name)
                if src.kind != "scalar":
                    # pair broadcast is an interpreter error; an entry
                    # scalar is loop-invariant and unseen in generated code
                    raise _Unsupported
                self._write_vreg(dst, _Val("bcast", src.slot))
            return True
        if op is Opcode.VLDW:
            slot = self._gather(instr.mem, "lanes")
            self._write_vreg(instr.dsts[0], _Val("vector", slot))
            return True
        if op is Opcode.VLDDW:
            slot = self._gather(instr.mem, "2lanes")
            lo, hi = self._val("vector"), self._val("vector")

            def step(ctx, *, s=slot, dlo=lo.slot, dhi=hi.slot) -> None:
                data = ctx.values[s]
                half = data.shape[1] // 2
                ctx.values[dlo] = data[:, :half]
                ctx.values[dhi] = data[:, half:]

            self.steps.append(step)
            self._write_vreg(instr.dsts[0], lo)
            self._write_vreg(instr.dsts[1], hi)
            return True
        if op is Opcode.VMOVI:
            out = self._val("vector")
            imm = instr.imm

            def step(ctx, *, d=out.slot, imm=imm) -> None:
                ctx.values[d] = np.broadcast_to(
                    np.full(ctx.lanes, imm, dtype=ctx.dtype),
                    (ctx.trip, ctx.lanes),
                )

            self.steps.append(step)
            self._write_vreg(instr.dsts[0], out)
            return True
        if op is Opcode.VFMULAS32:
            return self._compile_fma(instr)
        if op is Opcode.VADDS32:
            return self._compile_vadd(instr)
        if op is Opcode.VSTW or op is Opcode.VSTDW:
            raise _Unsupported  # body stores: leave to the interpreter
        raise _Unsupported

    def _compile_fma(self, instr: Instr) -> bool:
        acc_name, va_name, vb_name = instr.srcs
        dst = instr.dsts[0]
        va = self._read_vreg(va_name)
        vb = self._read_vreg(vb_name)
        if va.kind == "entry_vector" or vb.kind == "entry_vector":
            # loop-invariant multiplicand: legal but unseen in generated
            # code; supportable, yet not worth a bespoke broadcast path.
            raise _Unsupported
        if va.kind == "bcast" and vb.kind == "bcast":
            raise _Unsupported  # full-width result shape would be implicit
        prod = self._val("vector")

        def mul_step(ctx, *, a=va, b=vb, d=prod.slot) -> None:
            ctx.values[d] = ctx.resolve_vec(a) * ctx.resolve_vec(b)

        acc = self.vregs.get(acc_name)
        if acc is None and dst == acc_name:
            # the recurrence: vc += va * vb folding over all iterations.
            if acc_name in self.acc_written:
                raise _Unsupported
            self.steps.append(mul_step)
            entry = self._new_slot()
            final = self._new_slot()
            self.entry_vregs[acc_name] = entry
            self.accumulators[acc_name] = (entry, final)
            self.acc_written.add(acc_name)

            def acc_step(ctx, *, p=prod.slot, entry=entry, final=final) -> None:
                initial = ctx.values[entry]
                stack = np.empty(
                    (ctx.trip + 1, initial.shape[0]), dtype=ctx.dtype
                )
                stack[0] = initial
                stack[1:] = ctx.values[p]  # broadcasts (trip, 1) products
                ctx.values[final] = np.add.accumulate(stack, axis=0)[-1]

            self.steps.append(acc_step)
            # later body reads of the accumulator would need per-iteration
            # prefixes; mark it so any such read falls back.
            self.vregs[acc_name] = _Val("acc_final", final)
            return True
        if acc is not None and acc.kind == "acc_final":
            raise _Unsupported  # re-accumulation or read of a folded acc
        # plain elementwise form: the accumulator was produced earlier in
        # this same iteration (e.g. by VMOVI), so no recurrence exists.
        acc_val = self._read_vreg(acc_name)
        if acc_val.kind == "entry_vector":
            raise _Unsupported  # entry acc with dst != acc: rotation
        self.steps.append(mul_step)
        out = self._val("vector")

        def add_step(ctx, *, a=acc_val, p=prod.slot, d=out.slot) -> None:
            ctx.values[d] = ctx.resolve_vec(a) + ctx.values[p]

        self.steps.append(add_step)
        self._write_vreg(dst, out)
        return True

    def _compile_vadd(self, instr: Instr) -> bool:
        a_name, b_name = instr.srcs
        dst = instr.dsts[0]
        if dst in (a_name, b_name) and self.vregs.get(dst) is None:
            raise _Unsupported  # add-recurrence: unseen in generated code
        va = self._read_vreg(a_name)
        vb = self._read_vreg(b_name)
        if va.kind in ("entry_vector", "acc_final") or vb.kind in (
            "entry_vector", "acc_final",
        ):
            raise _Unsupported
        if va.kind == "bcast" and vb.kind == "bcast":
            raise _Unsupported
        out = self._val("vector")

        def step(ctx, *, a=va, b=vb, d=out.slot) -> None:
            ctx.values[d] = ctx.resolve_vec(a) + ctx.resolve_vec(b)

        self.steps.append(step)
        self._write_vreg(dst, out)
        return True

    # -- writes ------------------------------------------------------------

    def _write_sreg(self, name: str, val: _Val) -> None:
        if name in self.accumulators:
            raise _Unsupported
        self.sregs[name] = val

    def _write_vreg(self, name: str, val: _Val) -> None:
        if name in self.accumulators:
            raise _Unsupported
        if name in self.entry_vregs and name not in self.acc_written:
            # entry value was read earlier, now overwritten: iteration i
            # would see iteration i-1's value — register rotation.
            raise _Unsupported
        self.vregs[name] = val


class _Unsupported(Exception):
    """Internal: this body needs the interpreter."""


# ---------------------------------------------------------------------------
# run-time execution
# ---------------------------------------------------------------------------


class _RunContext:
    """Per-invocation scratch: tiles, iteration index, value table."""

    __slots__ = ("arrays", "trip", "iters", "values", "dtype", "lanes")

    def __init__(self, arrays, trip: int, n_slots: int, dtype, lanes: int):
        self.arrays = arrays
        self.trip = trip
        self.iters = np.arange(trip)
        self.values: list = [None] * n_slots
        self.dtype = dtype
        self.lanes = lanes

    def tile(self, name: str) -> np.ndarray:
        try:
            return self.arrays[name]
        except KeyError:
            raise IsaError(f"unknown tile {name!r}") from None

    def resolve_vec(self, val: _Val) -> np.ndarray:
        """Materialize a vector operand as ``(trip, lanes)``-broadcastable."""
        data = self.values[val.slot]
        if val.kind == "bcast":
            return data[:, None]  # (trip, 1) broadcasts against lanes
        return data


class CompiledBlock:
    """One compiled loop body plus its register-interface metadata."""

    __slots__ = (
        "block", "steps", "n_slots",
        "entry_sregs", "entry_vregs", "accumulators",
        "final_sregs", "final_vregs",
    )

    def __init__(self, block: LoopProgram, comp: _Compiler) -> None:
        self.block = block
        self.steps = comp.steps
        self.n_slots = comp.n_slots
        self.entry_sregs = comp.entry_sregs
        self.entry_vregs = {
            n: s for n, s in comp.entry_vregs.items()
            if n not in comp.accumulators
        }
        self.accumulators = comp.accumulators
        # registers whose post-loop value later code may read: everything
        # the body wrote, at its last-iteration value.  A register whose
        # symbolic value is still its entry value was only read, never
        # written, so the machine state already holds it.
        self.final_sregs = {
            n: v for n, v in comp.sregs.items() if v.kind != "entry_scalar"
        }
        self.final_vregs = {
            n: v for n, v in comp.vregs.items() if v.kind != "entry_vector"
        }

    def run(self, state) -> None:
        """Execute all ``trip`` iterations against ``state`` (batched)."""
        block = self.block
        if block.trip <= 0:
            return
        ctx = _RunContext(
            state.arrays, block.trip, self.n_slots, state.dtype, state.vlanes
        )
        # entry values (loop-invariant reads + accumulator initials)
        for name, slot in self.entry_sregs.items():
            value = state.sregs.get(name)
            if value is None:
                raise IsaError(f"read of undefined scalar register {name}")
            ctx.values[slot] = value
        for name, slot in self.entry_vregs.items():
            value = state.vregs.get(name)
            if value is None:
                raise IsaError(f"read of undefined vector register {name}")
            ctx.values[slot] = value
        for name, (entry, _final) in self.accumulators.items():
            value = state.vregs.get(name)
            if value is None:
                raise IsaError(f"read of undefined vector register {name}")
            ctx.values[entry] = value
        for step in self.steps:
            step(ctx)
        # write back final register state (last-iteration values)
        for name, val in self.final_sregs.items():
            data = ctx.values[val.slot]
            if val.kind == "pair":
                state.sregs[name] = data[-1].copy()
            else:
                state.sregs[name] = data[-1]
        for name, val in self.final_vregs.items():
            if val.kind == "acc_final":
                state.vregs[name] = ctx.values[val.slot]
            elif val.kind == "bcast":
                state.vregs[name] = np.full(
                    ctx.lanes, ctx.values[val.slot][-1], dtype=ctx.dtype
                )
            else:
                state.vregs[name] = np.array(
                    ctx.values[val.slot][-1], dtype=ctx.dtype, copy=True
                )
        state.instructions_retired += block.trip * len(block.body)


class CompiledProgram:
    """A kernel program with per-block compiled bodies (or fallbacks)."""

    __slots__ = ("program", "blocks")

    def __init__(
        self, program: KernelProgram, blocks: list[CompiledBlock | None]
    ) -> None:
        self.program = program
        self.blocks = blocks

    def run(self, state) -> None:
        from .interp import run_block  # local: avoid import cycle at load

        m = _obs_current()
        for block, compiled in zip(self.program.blocks, self.blocks):
            if compiled is None:
                if m is not None:
                    m.counter("isa/exec/interp_blocks").inc()
                run_block(block, state)
                continue
            if m is not None:
                m.counter("isa/exec/compiled_blocks").inc()
            for instr in block.setup:
                state.execute(instr, 0)
            compiled.run(state)
            for instr in block.teardown:
                state.execute(instr, 0)


def compile_block(block: LoopProgram) -> CompiledBlock | None:
    """Compile one block's body; ``None`` when it needs the interpreter."""
    return _Compiler(block).compile()


def compile_program(program: KernelProgram) -> CompiledProgram:
    """Compile every block of ``program`` (with per-block fallback)."""
    m = _obs_current()
    compiled: list[CompiledBlock | None] = []
    for block in program.blocks:
        cb = compile_block(block)
        compiled.append(cb)
        if m is not None:
            which = "compiled" if cb is not None else "fallback"
            m.counter(f"isa/compile/blocks_{which}").inc()
    return CompiledProgram(program, compiled)


def compiled_for(program: KernelProgram) -> CompiledProgram:
    """Memoized :func:`compile_program`, cached on the program object."""
    cached = getattr(program, "_compiled", None)
    if cached is None or cached.program is not program:
        cached = compile_program(program)
        program._compiled = cached  # type: ignore[attr-defined]
    return cached
