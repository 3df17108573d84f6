"""CI tune smoke: the adaptive plan search must pay for itself.

One gate, on reference shapes with a fresh kernel registry:
**pruning identity** — the bound-pruned search must fully score at most
half of the candidate grid while selecting a plan **bit-identical** to
the exhaustive search (the correctness invariant: pruning is a search-
order optimization, never a different answer).

Usage::

    PYTHONPATH=src python benchmarks/tune_smoke.py
"""

from __future__ import annotations

import sys

from repro.core.autotune import autotune
from repro.core.shapes import GemmShape
from repro.hw.config import default_machine
from repro.kernels.registry import KernelRegistry

#: shapes with full candidate grids (tiny grids are all-finalist anyway)
REFERENCE_SHAPES = [
    GemmShape(2048, 32, 2048),
    GemmShape(4096, 64, 512),
    GemmShape(20480, 16, 20480),
]
MAX_SCORED_FRACTION = 0.5


def gate_pruning(cluster, registry) -> bool:
    ok = True
    print("pruned search scores <= "
          f"{MAX_SCORED_FRACTION:.0%} of the grid, identical plan")
    for shape in REFERENCE_SHAPES:
        pruned = autotune(shape, cluster, registry, mode="pruned")
        full = autotune(shape, cluster, registry, mode="exhaustive")
        frac = pruned.stats.scored / pruned.stats.generated
        same = pruned.best == full.best
        print(f"  {shape.m}x{shape.n}x{shape.k}: scored "
              f"{pruned.stats.scored}/{pruned.stats.generated} "
              f"({frac:.0%}), plan {'identical' if same else 'DIFFERS'}")
        if frac > MAX_SCORED_FRACTION or not same:
            ok = False
    return ok


def main() -> int:
    cluster = default_machine().cluster
    ok = gate_pruning(cluster, KernelRegistry(cluster.core))
    if ok:
        print("OK: the pruning-identity gate holds")
        return 0
    print("FAIL: the pruning-identity gate did not hold")
    return 1


if __name__ == "__main__":
    sys.exit(main())
