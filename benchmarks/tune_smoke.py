"""CI tune smoke: the adaptive plan search must pay for itself.

Two gates, all on reference shapes with a hermetic (temp-dir) kernel
cache:

1. **Pruning** — the bound-pruned search must fully score at most half
   of the candidate grid while selecting a plan **bit-identical** to the
   exhaustive search (the correctness invariant: pruning is a search-
   order optimization, never a different answer).
2. **Amortization** — ``autotune(jobs=2)`` must not lose to serial on a
   single-shape search (the BENCH_PR2 0.66x regression this PR fixes:
   below the pool-amortization threshold the search stays serial).

Usage::

    PYTHONPATH=src python benchmarks/tune_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.core.autotune import autotune
from repro.core.shapes import GemmShape
from repro.hw.config import default_machine
from repro.kernels.registry import KernelDiskCache, KernelRegistry

#: shapes with full candidate grids (tiny grids are all-finalist anyway)
REFERENCE_SHAPES = [
    GemmShape(2048, 32, 2048),
    GemmShape(4096, 64, 512),
    GemmShape(20480, 16, 20480),
]
MAX_SCORED_FRACTION = 0.5
#: noise margin for gate 2 (two timings of the same serial work)
PARALLEL_MARGIN = 1.25


def _registry(tmp: Path, cluster):
    return KernelRegistry(cluster.core, disk=KernelDiskCache(tmp / "kernels"))


def gate_pruning(cluster, registry) -> bool:
    ok = True
    print("gate 1: pruned search scores <= "
          f"{MAX_SCORED_FRACTION:.0%} of the grid, identical plan")
    for shape in REFERENCE_SHAPES:
        pruned = autotune(shape, cluster, registry, jobs=1, mode="pruned")
        full = autotune(shape, cluster, registry, jobs=1, mode="exhaustive")
        frac = pruned.stats.scored / pruned.stats.generated
        same = pruned.best == full.best
        print(f"  {shape.m}x{shape.n}x{shape.k}: scored "
              f"{pruned.stats.scored}/{pruned.stats.generated} "
              f"({frac:.0%}), plan {'identical' if same else 'DIFFERS'}")
        if frac > MAX_SCORED_FRACTION or not same:
            ok = False
    return ok


def gate_parallel(cluster, registry) -> bool:
    shape = GemmShape(2048, 32, 2048)
    autotune(shape, cluster, registry, jobs=1)  # warm kernels

    def _best_of_two(jobs: int) -> tuple[float, bool]:
        walls = []
        pooled = False
        for _ in range(2):
            t0 = time.perf_counter()
            result = autotune(shape, cluster, registry, jobs=jobs)
            walls.append(time.perf_counter() - t0)
            pooled = result.stats.pooled
        return min(walls), pooled

    serial_s, _ = _best_of_two(1)
    parallel_s, pooled = _best_of_two(2)
    print("gate 2: autotune(jobs=2) does not lose to serial")
    print(f"  serial {serial_s * 1e3:7.1f} ms, jobs=2 "
          f"{parallel_s * 1e3:7.1f} ms "
          f"({serial_s / parallel_s:.2f}x, "
          f"{'pooled' if pooled else 'amortized serial'})")
    # the fix under test: a lone sub-threshold search must not pay a
    # pool spawn, so jobs=2 rides the identical serial path
    return not pooled and parallel_s <= serial_s * PARALLEL_MARGIN


def main() -> int:
    cluster = default_machine().cluster
    with tempfile.TemporaryDirectory(prefix="repro-tune-smoke-") as tmp:
        registry = _registry(Path(tmp), cluster)
        gates = [
            gate_pruning(cluster, registry),
            gate_parallel(cluster, registry),
        ]
    if all(gates):
        print("OK: pruning and amortization gates both hold")
        return 0
    failed = [i + 1 for i, g in enumerate(gates) if not g]
    print(f"FAIL: gate(s) {failed} did not hold")
    return 1


if __name__ == "__main__":
    sys.exit(main())
