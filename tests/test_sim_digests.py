"""Pins of the benchmark's simulated figures: one ``sim_digest`` per
workload and seed, as ``perfbench/run.py`` prints it.

A digest is the SHA-256 of the sorted-key JSON of one pass's simulated
figures (``Pass.sim``) joined with the workload's ``model_figures()``:
goodput, latency quantiles, ``sim_gflops``, ``sim_speedup_vs_tgemm``
and ``model_err_p95``.  Each pinned pass runs here in-process through
``perfbench/workloads.py``, so any change to a simulated float, to the
analytic model or to how the serve stack batches and schedules fails
here rather than in a hand comparison of two benchmark runs.

The chaos workload is not pinned: whether it detects an injected bit
flip depends on tile bits the host BLAS computes, and its digest has not
been compared across the Python versions CI runs.

A change meant to move a figure re-pins it here, and names each old and
new digest in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

#: workload -> seed -> sim_digest, as ``perfbench/run.py`` prints it
DIGESTS = {
    "gemm_grid": {
        0: "d48c33ceb89f251b7aa9361a93d6e533f415cc2d914c40ee1d2c12b4e2b93222",
        1: "b1f707af44da5637ac6efc27ccf263f8f5fcf3dc315932f9aeff343879f0b3d9",
    },
    "overload": {
        0: "a12329cf9cfd53cc23aaf9809c4fc25923c8bae4ed281b9980c669f1e278fa4f",
    },
}


def sim_digest(figures: dict) -> str:
    """The digest ``perfbench/run.py`` prints for a run's figures."""
    return hashlib.sha256(
        json.dumps(figures, sort_keys=True).encode()
    ).hexdigest()


def figures(name: str, seed: int) -> dict:
    """One pass's simulated figures joined with its model figures."""
    workload = workloads.make(name, seed)
    one = workload.run_pass()
    assert one.ops and not one.failed, f"{name} seed {seed}: failed ops"
    return {**one.sim, **workload.model_figures()}


@pytest.fixture(scope="module")
def grid0() -> dict:
    return figures("gemm_grid", 0)


def test_gemm_grid_seed0(grid0):
    assert sim_digest(grid0) == DIGESTS["gemm_grid"][0]


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name, seeds in DIGESTS.items() for seed in seeds
     if (name, seed) != ("gemm_grid", 0)],
)
def test_digest_pinned(name, seed):
    assert sim_digest(figures(name, seed)) == DIGESTS[name][seed]


def test_a_doctored_figure_fails(grid0):
    """One ulp on any one figure changes the digest."""
    for key, value in grid0.items():
        doctored = {**grid0, key: math.nextafter(value, math.inf)}
        assert sim_digest(doctored) != DIGESTS["gemm_grid"][0], key


def test_a_doctored_digest_fails(grid0):
    digest = DIGESTS["gemm_grid"][0]
    doctored = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    assert sim_digest(grid0) != doctored
