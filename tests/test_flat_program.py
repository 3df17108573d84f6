"""The flat functional program: the op list's bits without the op list.

A clean NumPy call of a cached program runs the kernel groups
``compile_flat`` derived from its op list.  The reference here is that op
list itself: every closure replayed in ``seq`` order inside the binding
of the very program that ran flat.  The counters
``executor/functional/flat`` and ``executor/functional/oplist`` say which
path a call took.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.core import ftimm
from repro.core.ftimm import clear_programs, ftimm_gemm, tgemm_gemm
from repro.core.lowering import GemmOperands
from repro.faults.plan import CoreFault, DegradationWindow, FaultPlan
from repro.obs import collecting
from repro.serve.loadgen import MIXES

#: the paper's irregular grid: three (M, K) types x N
GRID = [(m, n, k) for n in (16, 32, 64)
        for m, k in ((8192, 512), (64, 16384), (2048, 2048))]
#: every shape class of the five serve mixes, once each
MIX_SHAPES = sorted({
    (c.shape.m, c.shape.n, c.shape.k)
    for make in MIXES.values() for c in make()
})
#: remainder tiles: one-row and other short m_s edges, N and K remainders
REMAINDERS = [(100, 7, 300), (33, 65, 129), (5000, 3, 17), (1001, 32, 256),
              (13, 1, 40), (7, 96, 1000)]


@pytest.fixture(autouse=True)
def cold_cache():
    clear_programs()
    yield
    clear_programs()


def operands(m, n, k, seed=0):
    rng = np.random.default_rng([m, n, k, seed])
    return tuple(
        rng.standard_normal(dims).astype(np.float32)
        for dims in ((m, k), (k, n), (m, n))
    )


def call(m, n, k, strategy, a, b, c, **kw):
    """One call through the program cache; ``strategy=None`` is tuned."""
    if strategy == "tgemm":
        tgemm_gemm(m, n, k, a=a, b=b, c=c, timing="none", **kw)
    else:
        ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="none",
                   force_strategy=strategy, **kw)


def program():
    """The one program the cache holds."""
    (held,) = ftimm._programs.values()
    return held


def replay(prog, a, b, c, kernel_exec="numpy"):
    """The op list: every closure of ``prog`` in order, on these operands."""
    with prog.ctx.binding(GemmOperands(a, b, c), kernel_exec=kernel_exec):
        for op in prog.ordered_ops():
            if op.run is not None:
                op.run()


def paths(reg) -> dict[str, float]:
    snap = reg.snapshot()
    return {
        name: snap.get(f"executor/functional/{name}", {}).get("value", 0)
        for name in ("flat", "oplist", "flat_fallbacks")
    }


def check_flat(m, n, k, strategy, calls=1):
    a, b, c0 = operands(m, n, k)
    results = []
    with collecting() as reg:
        for _ in range(calls):
            c = c0.copy()
            call(m, n, k, strategy, a, b, c)
            results.append(c)
    assert paths(reg) == {"flat": calls, "oplist": 0, "flat_fallbacks": 0}
    c_ref = c0.copy()
    replay(program(), a, b, c_ref)
    for c in results:
        assert np.array_equal(c, c_ref), (m, n, k, strategy)


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", ["m", "tgemm"])
    @pytest.mark.parametrize("shape", GRID, ids=str)
    def test_paper_grid(self, shape, strategy):
        check_flat(*shape, strategy)

    @pytest.mark.parametrize("shape", MIX_SHAPES, ids=str)
    def test_serve_mix_shapes(self, shape):
        # the tuned strategy, as serve runs it
        check_flat(*shape, None)

    @pytest.mark.parametrize("strategy", ["m", "tgemm"])
    @pytest.mark.parametrize("shape", REMAINDERS, ids=str)
    def test_remainder_tiles(self, shape, strategy):
        check_flat(*shape, strategy)

    def test_repeated_calls_on_one_program(self):
        check_flat(784, 64, 1152, None, calls=4)

    def test_f64(self):
        m, n, k = 300, 24, 200
        rng = np.random.default_rng(3)
        a, b, c0 = (rng.standard_normal(d) for d in ((m, k), (k, n), (m, n)))
        c = c0.copy()
        with collecting() as reg:
            ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="none", dtype="f64")
        assert paths(reg)["flat"] == 1
        c_ref = c0.copy()
        replay(program(), a, b, c_ref)
        assert np.array_equal(c, c_ref)

    def test_groups_stack_consecutive_tiles(self):
        """A conv_bulk call is 196 kernel tiles in 16 groups, fem's 32 in 1."""
        for (m, n, k), groups in (((784, 64, 1152), 16), ((256, 16, 16), 1)):
            clear_programs()
            check_flat(m, n, k, None)
            assert program().census()["kernel_ops"] > groups
            assert len(program().flat) == groups


class TestStaysOnTheOpList:
    """What the flat program may not run keeps the op list and its bits."""

    def check_oplist(self, m, n, k, strategy, a, b, c0, *, fallbacks=0,
                     kernel_exec="numpy", **kw):
        c = c0.copy(order="K")
        with collecting() as reg:
            call(m, n, k, strategy, a, b, c, kernel_exec=kernel_exec, **kw)
        assert paths(reg) == {"flat": 0, "oplist": 1,
                              "flat_fallbacks": fallbacks}
        c_ref = c0.copy(order="K")
        replay(program(), a, b, c_ref, kernel_exec=kernel_exec)
        assert np.array_equal(c, c_ref)

    def test_k_parallel(self):
        m, n, k = 64, 16, 4096
        a, b, c0 = operands(m, n, k)
        self.check_oplist(m, n, k, "k", a, b, c0, fallbacks=1)
        # compiled once: later calls do not try again
        self.check_oplist(m, n, k, "k", a, b, c0, fallbacks=0)
        assert program().flat == ()

    def test_compiled_kernels(self):
        m, n, k = 64, 16, 64
        self.check_oplist(m, n, k, "m", *operands(m, n, k),
                          kernel_exec="compiled")
        assert program().flat is None

    @pytest.mark.parametrize("layout", ["fortran_a", "fortran_b",
                                        "strided_a", "strided_b",
                                        "fortran_c"])
    def test_operand_layouts(self, layout):
        m, n, k = 300, 32, 200
        a, b, c0 = operands(m, n, k)
        if layout == "fortran_a":
            a = np.asfortranarray(a)
        elif layout == "fortran_b":
            b = np.asfortranarray(b)
        elif layout == "strided_a":
            a = np.repeat(a, 2, axis=1)[:, ::2]
        elif layout == "strided_b":
            b = np.repeat(b, 2, axis=0)[::2]
        else:
            c0 = np.asfortranarray(c0)
        self.check_oplist(m, n, k, "m", a, b, c0)

    def test_c_aliasing_a(self):
        """C is A (N == K) over two K blocks: each K block's A tiles are
        loaded after the previous block's C tiles were stored back, so the
        op list reads updated A; accumulating C in place would not."""
        m, k = 64, 600
        a0, b, _ = operands(m, k, k)
        a = a0.copy()
        with collecting() as reg:
            tgemm_gemm(m, k, k, a=a, b=b, c=a, timing="none")
        assert paths(reg) == {"flat": 0, "oplist": 1, "flat_fallbacks": 0}
        assert program().meta["plan"].k_g < k
        a_ref = a0.copy()
        replay(program(), a_ref, b, a_ref)
        assert np.array_equal(a, a_ref)

    def test_uncached_program(self, monkeypatch):
        """A program too big for the cache would compile on every call."""
        monkeypatch.setattr(ftimm, "_PROGRAM_CACHE_OPS", 50)
        m, n, k = 512, 32, 512
        a, b, c0 = operands(m, n, k)
        c = c0.copy()
        with collecting() as reg:
            call(m, n, k, "m", a, b, c)
        assert paths(reg) == {"flat": 0, "oplist": 1, "flat_fallbacks": 0}
        assert not ftimm._programs


class TestQuietFaultPlans:
    """A fault plan that cannot strike the functional phase runs flat; one
    that can (bit flips, an ``after_ops`` core fault) keeps the op list."""

    SHAPE = (512, 32, 512)

    def check(self, plan, expect):
        m, n, k = self.SHAPE
        a, b, c0 = operands(m, n, k)
        c = c0.copy()
        with collecting() as reg:
            call(m, n, k, "m", a, b, c, faults=plan)
        assert paths(reg) == {**expect, "flat_fallbacks": 0}
        c_ref = c0.copy()
        replay(program(), a, b, c_ref)
        assert np.array_equal(c, c_ref)

    def test_zero_rate_fault_plan(self):
        self.check(FaultPlan(seed=1), {"flat": 1, "oplist": 0})

    @pytest.mark.parametrize("plan", [
        FaultPlan(seed=2, dma_fail_rate=0.1),
        FaultPlan(seed=3, ddr_degradation=(
            DegradationWindow(0.0, 1e-3, 0.5),)),
        FaultPlan(seed=4, core_faults=(CoreFault(core=1, after_s=1e-6),)),
    ], ids=["dma", "ddr_window", "after_s"])
    def test_des_only_faults(self, plan):
        self.check(plan, {"flat": 1, "oplist": 0})

    def test_bitflip_rate(self):
        self.check(FaultPlan(seed=1, bitflip_rate=1e-3),
                   {"flat": 0, "oplist": 1})

    def test_after_ops_core_fault(self):
        # armed but never reached: the attempt could be struck, so it is
        # guarded all the same
        plan = FaultPlan(core_faults=(CoreFault(core=1, after_ops=10**6),))
        self.check(plan, {"flat": 0, "oplist": 1})


class TestCompileProvesOrRejects:
    """``compile_flat`` keeps a program off the flat path unless it can
    show the op list equal to in-place kernels; here on surgically edited
    op lists of one M-parallel program (nine 320-row chunks over eight
    cores, so core 0 reuses its C tile)."""

    @pytest.fixture
    def prog(self):
        m, n, k = 2880, 16, 64
        a, b, c = operands(m, n, k)
        call(m, n, k, "m", a, b, c, adjust=False)
        assert program().meta["plan"].m_a == 320
        return program()

    @staticmethod
    def first(ops, name, operand=None, core=None):
        for i, op in enumerate(ops):
            run = op.run
            if (run is not None and getattr(run.func, "__name__", "") == name
                    and (operand is None or run.args[1] == operand)
                    and (core is None or op.core == core)):
                return i
        raise LookupError(name)

    def test_unedited_program_compiles(self, prog):
        assert prog.ctx.compile_flat(prog.ordered_ops())

    def test_accumulation_overwritten(self, prog):
        ops = list(prog.ordered_ops())
        del ops[self.first(ops, "_unload", core=0)]
        assert prog.ctx.compile_flat(ops) == ()

    def test_accumulation_never_stored_back(self, prog):
        ops = list(prog.ordered_ops())
        del ops[self.first(ops, "_unload", core=1)]
        assert prog.ctx.compile_flat(ops) == ()

    def test_tile_read_before_it_is_loaded(self, prog):
        ops = list(prog.ordered_ops())
        del ops[self.first(ops, "_load", operand="a")]
        assert prog.ctx.compile_flat(ops) == ()

    def test_second_mirror_of_one_c_window(self, prog):
        ops = list(prog.ordered_ops())
        i = self.first(ops, "_load", operand="c", core=0)
        other = ops[self.first(ops, "_load", operand="c", core=1)].run
        _dst, operand, rows, cols, _core = ops[i].run.args
        twin = partial(other.func, other.args[0], operand, rows, cols, 1)
        ops.insert(i + 1, dataclasses.replace(ops[i], run=twin))
        assert prog.ctx.compile_flat(ops) == ()

    def test_store_back_to_another_window(self, prog):
        ops = list(prog.ordered_ops())
        i = self.first(ops, "_unload")
        run = ops[i].run
        src, rows, cols, core = run.args
        moved = slice(rows.start + 1, rows.stop + 1)
        ops[i] = dataclasses.replace(
            ops[i], run=partial(run.func, src, moved, cols, core)
        )
        assert prog.ctx.compile_flat(ops) == ()

    def test_unknown_closure(self, prog):
        ops = list(prog.ordered_ops())
        ops.insert(1, dataclasses.replace(ops[0], run=lambda: None))
        assert prog.ctx.compile_flat(ops) == ()
