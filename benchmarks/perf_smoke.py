"""CI perf smoke: the trace-compiled kernel path must beat the interpreter,
repeated calls must reuse one lowered program, a clean call must run the
flat program, and repeated copies of one B must reuse one interned digest.

Runs the reference functional workload (512x32x512, the shape the CI
perf-report smoke already uses) once with ``kernel_exec="interp"`` and
once with ``kernel_exec="compiled"``, checks the two produce bit-identical
results, and **fails (exit 1) if the compiled path is not faster** — the
guard that keeps a regression in :mod:`repro.isa.compile` (e.g. a new
generator idiom silently falling back to the interpreter) from landing.
Both runs start from an empty program cache, so each pays its lowering.

The program-cache gate counts rather than times, so it holds on any
machine: five repeated ``ftimm_gemm`` calls on the shape must lower once
(``core/lowering/misses`` 1, ``hits`` 4) and give C bit-identical to a
cache-cold call, clean, under a seeded fault plan and under a core loss
alike (a survivor re-runs the dead core's ops of the same program).  The B-intern
gate counts too: five fresh copies of one B must digest once
(``core/batched/b_intern/misses`` 1, ``hits`` 4) to the same blake2b an
inline hash gives, and a copy with one bit flipped must miss and digest
differently.  The flat-program gate counts as well: one clean call must
run the flat program (``executor/functional/flat`` 1) with C bit-identical
to the op list replayed closure by closure, one call under a plan that
cannot strike the functional run (DMA failures only) must run it too with
the clean call's C, and one call under the gate's fault plan must run the
op list (``executor/functional/oplist`` 1).

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [MxNxK]
"""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np

from repro.core.batched import b_digest, clear_interned
from repro.core.ftimm import clear_programs, ftimm_gemm, lowered_program
from repro.core.lowering import GemmOperands
from repro.core.shapes import GemmShape
from repro.core.tuner import tune
from repro.hw.config import default_machine
from repro.faults.plan import CoreFault, FaultPlan
from repro.obs import collecting
from repro.workloads.generators import random_operands

#: calls of the program-cache gate: the first lowers, the rest must hit
CACHE_CALLS = 5
#: the gate's faulted variant: bit flips and DMA failures
GATE_FAULTS = FaultPlan(seed=11, bitflip_rate=0.02, dma_fail_rate=0.1)
#: the gate's core-loss variant: core 1 fails in every call
CORE_LOSS_FAULTS = FaultPlan(
    seed=11, core_faults=(CoreFault(core=1, after_ops=5, after_s=1e-6),)
)
#: the gate's plan that cannot strike a functional run: DMA failures only
QUIET_FAULTS = FaultPlan(seed=11, dma_fail_rate=0.1)


def timed_run(shape: GemmShape, kernel_exec: str) -> tuple[float, np.ndarray]:
    a, b, c0 = random_operands(shape, seed=0)
    c = c0.copy()
    clear_programs()
    t0 = time.perf_counter()
    ftimm_gemm(
        shape.m, shape.n, shape.k, a=a, b=b, c=c,
        timing="none", kernel_exec=kernel_exec,
    )
    return time.perf_counter() - t0, c


def cache_gate(shape: GemmShape, faults: FaultPlan | None) -> bool:
    """Repeated calls lower once and match a cache-cold call to the bit."""
    a, b, c0 = random_operands(shape, seed=0)

    def call() -> np.ndarray:
        c = c0.copy()
        ftimm_gemm(shape.m, shape.n, shape.k, a=a, b=b, c=c,
                   timing="none", faults=faults)
        return c

    clear_programs()
    c_cold = call()
    clear_programs()
    with collecting() as reg:
        results = [call() for _ in range(CACHE_CALLS)]
    counts = {
        name: reg.counter(f"core/lowering/{name}").value
        for name in ("misses", "hits")
    }
    label = ("clean" if faults is None
             else "core loss" if faults.core_faults else "faulted")
    print(f"  program cache ({label}): {CACHE_CALLS} calls, "
          f"misses={counts['misses']:g} hits={counts['hits']:g}")
    ok = True
    if counts != {"misses": 1, "hits": CACHE_CALLS - 1}:
        print(f"FAIL: expected 1 miss and {CACHE_CALLS - 1} hits")
        ok = False
    if not all(np.array_equal(c, c_cold) for c in results):
        print("FAIL: a cached call differs from the cache-cold call")
        ok = False
    failures = reg.counter("faults/core_failures").value
    if faults is not None and failures != CACHE_CALLS * len(faults.core_faults):
        print(f"FAIL: {failures:g} core failures in {CACHE_CALLS} calls")
        ok = False
    return ok


def flat_gate(shape: GemmShape) -> bool:
    """A clean call runs flat with the op list's bits, and so does a call
    under a plan that cannot strike it; a faulted one does not run flat."""
    a, b, c0 = random_operands(shape, seed=0)

    def paths(faults: FaultPlan | None) -> tuple[np.ndarray, dict]:
        c = c0.copy()
        with collecting() as reg:
            ftimm_gemm(shape.m, shape.n, shape.k, a=a, b=b, c=c,
                       timing="none", faults=faults)
        return c, {
            name: reg.counter(f"executor/functional/{name}").value
            for name in ("flat", "oplist")
        }

    clear_programs()
    c_flat, clean = paths(None)
    cluster = default_machine().cluster
    program = lowered_program(
        shape, cluster, tune(shape, cluster), functional=True
    )
    c_oplist = c0.copy()
    with program.ctx.binding(GemmOperands(a, b, c_oplist)):
        for op in program.ordered_ops():
            if op.run is not None:
                op.run()
    _c, faulted = paths(GATE_FAULTS)
    c_quiet, quiet = paths(QUIET_FAULTS)
    print(f"  functional path: clean flat={clean['flat']:g} "
          f"oplist={clean['oplist']:g}; quiet flat={quiet['flat']:g} "
          f"oplist={quiet['oplist']:g}; faulted flat={faulted['flat']:g} "
          f"oplist={faulted['oplist']:g}")
    ok = True
    if clean != {"flat": 1, "oplist": 0}:
        print("FAIL: a clean call did not run the flat program")
        ok = False
    if quiet != {"flat": 1, "oplist": 0}:
        print("FAIL: a call under a quiet plan did not run the flat program")
        ok = False
    if not np.array_equal(c_quiet, c_flat):
        print("FAIL: a call under a quiet plan differs from the clean call")
        ok = False
    if faulted != {"flat": 0, "oplist": 1}:
        print("FAIL: a faulted call did not run the op list")
        ok = False
    if not np.array_equal(c_flat, c_oplist):
        print("FAIL: the flat program differs from the op-list replay")
        ok = False
    return ok


def inline_digest(b: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(b.dtype).encode())
    h.update(str(b.shape).encode())
    h.update(np.ascontiguousarray(b).tobytes())
    return h.hexdigest()


def intern_gate(shape: GemmShape) -> bool:
    """Fresh copies of one B hash once; a one-bit change never hits."""
    _a, b, _c = random_operands(shape, seed=0)
    flipped = b.copy()
    flipped.view(np.uint32)[1, 1] ^= 1
    clear_interned()
    with collecting() as reg:
        digests = [b_digest(b.copy()) for _ in range(CACHE_CALLS)]
        counts = {
            name: reg.counter(f"core/batched/b_intern/{name}").value
            for name in ("misses", "hits")
        }
        flipped_digest = b_digest(flipped)
        flipped_misses = reg.counter("core/batched/b_intern/misses").value
    print(f"  B intern: {CACHE_CALLS} copies, "
          f"misses={counts['misses']:g} hits={counts['hits']:g}")
    ok = True
    if counts != {"misses": 1, "hits": CACHE_CALLS - 1}:
        print(f"FAIL: expected 1 miss and {CACHE_CALLS - 1} hits")
        ok = False
    if digests != [inline_digest(b)] * CACHE_CALLS:
        print("FAIL: an interned digest differs from the inline blake2b")
        ok = False
    if flipped_misses != counts["misses"] + 1:
        print("FAIL: a B with one bit flipped did not miss")
        ok = False
    if flipped_digest == digests[0] or flipped_digest != inline_digest(flipped):
        print("FAIL: a B with one bit flipped did not get its own digest")
        ok = False
    return ok


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        m, n, k = (int(x) for x in argv[1].lower().split("x"))
        shape = GemmShape(m, n, k)
    else:
        shape = GemmShape(512, 32, 512)

    interp_s, c_interp = timed_run(shape, "interp")
    compiled_s, c_compiled = timed_run(shape, "compiled")
    speedup = interp_s / compiled_s if compiled_s > 0 else float("inf")

    print(f"perf smoke on {shape.m}x{shape.n}x{shape.k}:")
    print(f"  interp   {interp_s:8.3f} s")
    print(f"  compiled {compiled_s:8.3f} s   ({speedup:.1f}x)")

    if not np.array_equal(c_interp, c_compiled):
        print("FAIL: compiled result differs from the interpreter")
        return 1
    if compiled_s >= interp_s:
        print("FAIL: compiled path is not faster than the interpreter")
        return 1
    print("OK: compiled path is bit-identical and faster")

    if not all(cache_gate(shape, faults)
               for faults in (None, GATE_FAULTS, CORE_LOSS_FAULTS)):
        return 1
    print("OK: repeated calls reuse one program, bit-identical to cold")

    if not flat_gate(shape):
        return 1
    print("OK: a clean or quiet-plan call runs flat, bit-identical to the "
          "op list; a faulted call runs the op list")

    if not intern_gate(shape):
        return 1
    print("OK: copies of one B hash once; one flipped bit gets its own digest")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
