"""Trace compiler: bit-identical to the reference interpreter.

The compiled path (:mod:`repro.isa.compile`) is only allowed to exist
because its semantics are *exactly* the interpreter's — products computed
per element, accumulator recurrences folded in sequential order
(``np.add.accumulate``), setup/teardown run on the interpreter.  These
tests sweep the kernel spec grid asserting byte equality between the two
execution modes, and pin the fallback and memoization behavior.
"""

import numpy as np
import pytest

from repro.errors import IsaError, KernelError
from repro.hw.config import default_machine
from repro.isa.compile import compile_block, compile_program, compiled_for
from repro.isa.interp import run_program
from repro.isa.instructions import Opcode
from repro.isa.program import LoopProgram
from repro.kernels.registry import registry_for
from repro.kernels.spec import KernelSpec
from repro.obs import collecting

CORE = default_machine().cluster.core

#: the equivalence grid: regular paper shapes, degenerate edges (single
#: row / column / k-step), non-lane-multiple widths, and narrow-n_a specs
#: whose k_u > 1 makes the teardown reduction tree non-trivial.
SPEC_GRID = [
    ("f32", 6, 96, 32),      # the paper's regular kernel
    ("f32", 8, 96, 512),     # long k: deep accumulation chains
    ("f32", 1, 96, 1),       # single row, single k step
    ("f32", 10, 1, 2),       # single column
    ("f32", 3, 17, 5),       # nothing lane-aligned
    ("f32", 6, 32, 64),      # narrow n_a: k_u > 1, teardown-heavy
    ("f32", 12, 64, 128),    # two vector registers per row
    ("f32", 14, 96, 7),      # max row unroll, k < k_u
    ("f64", 6, 48, 32),      # fp64 full width
    ("f64", 4, 16, 10),      # fp64 narrow: broadcast-bandwidth regime
]


def _operands(spec: KernelSpec, seed: int = 0):
    """Random padded tiles (A, B, C) as ``MicroKernel.apply_isa`` pads them."""
    rng = np.random.default_rng(seed)
    dt = spec.np_dtype
    a = rng.standard_normal((spec.m_s, spec.k_a)).astype(dt)
    b = rng.standard_normal((spec.k_a, spec.n_a)).astype(dt)
    c = rng.standard_normal((spec.m_s, spec.n_a)).astype(dt)
    return a, b, c


class TestEquivalence:
    @pytest.mark.parametrize(
        "dtype,m_s,n_a,k_a",
        SPEC_GRID,
        ids=[f"{d}-{m}x{n}x{k}" for d, m, n, k in SPEC_GRID],
    )
    def test_compiled_bit_identical_to_interp(self, dtype, m_s, n_a, k_a):
        spec = KernelSpec(m_s, n_a, k_a, dtype)
        kern = registry_for(CORE).ftimm(m_s, n_a, k_a, dtype)
        a, b, c = _operands(spec)
        c_interp = c.copy()
        c_compiled = c.copy()
        kern.apply_isa(a, b, c_interp, mode="interp")
        kern.apply_isa(a, b, c_compiled, mode="compiled")
        assert c_compiled.dtype == c_interp.dtype
        assert np.array_equal(c_compiled, c_interp)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_identical_across_inputs(self, seed):
        # same kernel, different data: equality is not an artifact of zeros
        spec = KernelSpec(8, 96, 128)
        kern = registry_for(CORE).ftimm(8, 96, 128)
        a, b, c = _operands(spec, seed=seed)
        c2 = c.copy()
        kern.apply_isa(a, b, c, mode="interp")
        kern.apply_isa(a, b, c2, mode="compiled")
        assert np.array_equal(c, c2)

    def test_compiled_is_also_correct(self):
        # not just self-consistent: both paths compute C += A @ B
        kern = registry_for(CORE).ftimm(6, 96, 64)
        spec = KernelSpec(6, 96, 64)
        a, b, c = _operands(spec)
        ref = c.astype(np.float64) + a.astype(np.float64) @ b.astype(np.float64)
        kern.apply_isa(a, b, c, mode="compiled")
        np.testing.assert_allclose(c, ref, rtol=1e-4, atol=1e-4)

    def test_machine_state_identical_after_run(self):
        # the compiled path must leave registers at last-iteration values,
        # so a later block observing them cannot diverge
        kern = registry_for(CORE).ftimm(6, 32, 16)
        spec = KernelSpec(6, 32, 16)
        a, b, c = _operands(spec)

        def padded():
            dt = spec.np_dtype
            a_p = np.zeros((spec.m_s, kern.compute_k), dtype=dt)
            a_p[:, : spec.k_a] = a
            b_p = np.zeros((kern.compute_k, kern.compute_n), dtype=dt)
            b_p[: spec.k_a, : spec.n_a] = b
            c_p = np.zeros((spec.m_s, kern.compute_n), dtype=dt)
            c_p[:, : spec.n_a] = c
            return {"A": a_p, "B": b_p, "C": c_p}

        st_i = run_program(kern.program, padded(), mode="interp")
        st_c = run_program(kern.program, padded(), mode="compiled")
        assert st_c.instructions_retired == st_i.instructions_retired
        assert set(st_c.vregs) == set(st_i.vregs)
        for name, val in st_i.vregs.items():
            assert np.array_equal(st_c.vregs[name], val), name


class TestCompilerStructure:
    def test_generated_bodies_all_compile(self):
        # every body the generator emits must be in the compiled subset;
        # a fallback here silently costs the whole speedup
        for dtype, m_s, n_a, k_a in SPEC_GRID:
            kern = registry_for(CORE).ftimm(m_s, n_a, k_a, dtype)
            compiled = compiled_for(kern.program)
            assert None not in compiled.blocks

    def test_compiled_for_memoizes(self):
        kern = registry_for(CORE).ftimm(6, 96, 32)
        assert compiled_for(kern.program) is compiled_for(kern.program)

    def test_body_store_falls_back(self):
        # stores in a loop body are outside the compiled subset: reuse the
        # real teardown's store instructions as a synthetic body
        kern = registry_for(CORE).ftimm(6, 96, 32)
        block = kern.program.blocks[0]
        stores = [
            i for i in block.teardown
            if i.op in (Opcode.VSTW, Opcode.VSTDW)
        ]
        assert stores  # the teardown writes C back
        fake = LoopProgram(setup=[], body=stores, trip=2, teardown=[])
        assert compile_block(fake) is None

    def test_compile_counters_published(self):
        kern = registry_for(CORE).ftimm(8, 96, 64)
        with collecting() as reg:
            compile_program(kern.program)
        compiled = reg.counter("isa/compile/blocks_compiled").value
        assert compiled == len(kern.program.blocks)

    def test_exec_counters_published(self):
        spec = KernelSpec(6, 96, 32)
        kern = registry_for(CORE).ftimm(6, 96, 32)
        a, b, c = _operands(spec)
        with collecting() as reg:
            kern.apply_isa(a, b, c, mode="compiled")
        assert reg.counter("isa/exec/compiled_blocks").value >= 1


class TestModeSelection:
    def test_run_program_rejects_unknown_mode(self):
        kern = registry_for(CORE).ftimm(6, 96, 32)
        with pytest.raises(IsaError):
            run_program(kern.program, {}, mode="bogus")

    def test_apply_exec_rejects_unknown_mode(self):
        spec = KernelSpec(6, 96, 32)
        kern = registry_for(CORE).ftimm(6, 96, 32)
        a, b, c = _operands(spec)
        with pytest.raises(KernelError):
            kern.apply_exec(a, b, c, mode="fast")

    def test_apply_exec_modes_agree(self):
        spec = KernelSpec(6, 96, 32)
        kern = registry_for(CORE).ftimm(6, 96, 32)
        a, b, c = _operands(spec)
        c_np, c_isa = c.copy(), c.copy()
        kern.apply_exec(a, b, c_np, mode="numpy")
        kern.apply_exec(a, b, c_isa, mode="compiled")
        # numpy path uses BLAS order: close, not bit-identical
        np.testing.assert_allclose(c_isa, c_np, rtol=1e-4, atol=1e-4)
