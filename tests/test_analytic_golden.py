"""Golden pins of the analytic timer and of the lowered op lists.

``analytic_golden.json`` holds what these returned when it was recorded:

* ``float.hex`` of ``ftimm_gemm(..., timing="analytic").seconds`` over a
  grid of M x N x K, at the default, ``dtype="f64"``, each forced
  strategy and ``cores=3``, and of ``tgemm_gemm``'s over the same grid
  (a shape a variant rejects pins its error instead);
* ``analytic_parallel_m``'s two ablations (``use_gsm=False``,
  ``kernel_style="tgemm"``) and its plain timing on the ablation
  benchmark's shapes;
* ``plan_bound`` for both strategies on a sub-grid;
* a SHA-256 per lowered program over a small-M sub-grid, for all three
  builders and both ``pingpong`` settings: each op's kind, core, deps,
  tag, descriptor geometry, cycles, flops, sync, emission order and the
  tile windows (buffer and slot) of its functional closure.

Any change to an analytic float or to an emitted op fails here.
Re-record only on purpose, when a change is meant to move them::

    PYTHONPATH=src python tests/test_analytic_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core.blocking import KPlan, MPlan, adjust_k_plan, adjust_m_plan
from repro.core.ftimm import ftimm_gemm, tgemm_gemm
from repro.core.parallel_k import build_parallel_k
from repro.core.parallel_m import build_parallel_m
from repro.core.plan_search import plan_bound
from repro.core.shapes import GemmShape
from repro.core.tgemm import build_tgemm
from repro.errors import ReproError
from repro.executor.analytic import analytic_parallel_m
from repro.hw.config import default_machine

DATA = Path(__file__).with_name("analytic_golden.json")
CLUSTER = default_machine().cluster

MS = (1, 7, 64, 196, 2048, 8192)
NS = (1, 8, 16, 33, 48, 64, 96)
KS = (1, 16, 512, 1153, 16384)

#: variant -> the analytic timing of one grid point
VARIANTS = {
    "default": partial(ftimm_gemm, timing="analytic"),
    "f64": partial(ftimm_gemm, timing="analytic", dtype="f64"),
    "force_m": partial(ftimm_gemm, timing="analytic", force_strategy="m"),
    "force_k": partial(ftimm_gemm, timing="analytic", force_strategy="k"),
    "cores3": partial(ftimm_gemm, timing="analytic", cores=3),
    "tgemm": partial(tgemm_gemm, timing="analytic"),
}

#: the ablation benchmark's shapes (``benchmarks/test_bench_ablation.py``)
GSM_SHAPES = ((65536, 96, 96), (20480, 96, 20480), (2**20, 32, 512))
PADDED_SHAPES = ((65536, 32, 32), (65536, 96, 96), (20480, 16, 20480),
                 (2**20, 8, 8))
DES_SHAPES = ((20000, 32, 32), (8192, 96, 512), (20480, 32, 2048))

BOUND_GRID = [(m, n, k) for m in (7, 196, 2048) for n in (16, 48, 96)
              for k in (16, 1153, 16384)]

#: the small-M sub-grid whose lowered programs are digested
OPS_GRID = [(m, n, k) for m in (1, 7, 64) for n in (1, 16, 33, 96)
            for k in (1, 512, 1153, 16384)]
#: builder label -> its lowering of a shape on a cluster
BUILDERS = {
    "m": lambda s, c: build_parallel_m(s, c, bindable=True),
    "m_single": lambda s, c: build_parallel_m(
        s, c, pingpong=False, bindable=True),
    "m_f64": lambda s, c: build_parallel_m(
        s, c, MPlan(dtype="f64"), bindable=True),
    "k": lambda s, c: build_parallel_k(s, c, bindable=True),
    "k_single": lambda s, c: build_parallel_k(
        s, c, pingpong=False, bindable=True),
    "k_f64": lambda s, c: build_parallel_k(
        s, c, KPlan(dtype="f64"), bindable=True),
    "tgemm": lambda s, c: build_tgemm(s, c, bindable=True),
}


def _key(*parts) -> str:
    return "x".join(str(p) for p in parts)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def grid_pins(variant: str) -> dict[str, str]:
    timing = VARIANTS[variant]
    pins = {}
    for m in MS:
        for n in NS:
            for k in KS:
                try:
                    pins[_key(m, n, k)] = timing(m, n, k).seconds.hex()
                except ReproError as exc:
                    pins[_key(m, n, k)] = _error(exc)
    return pins


def ablation_pins() -> dict[str, str]:
    pins = {}
    for m, n, k in GSM_SHAPES + DES_SHAPES:
        shape = GemmShape(m, n, k)
        plan = adjust_m_plan(MPlan(), shape, CLUSTER)
        pins[_key("gsm", m, n, k)] = analytic_parallel_m(
            shape, CLUSTER, plan).seconds.hex()
        pins[_key("ddr", m, n, k)] = analytic_parallel_m(
            shape, CLUSTER, plan, use_gsm=False).seconds.hex()
    one_core = CLUSTER.with_cores(1)
    for m, n, k in PADDED_SHAPES:
        shape = GemmShape(m, n, k)
        plan6 = adjust_m_plan(MPlan(m_s=6), shape, one_core)
        pins[_key("padded", m, n, k)] = analytic_parallel_m(
            shape, one_core, plan6, kernel_style="tgemm").seconds.hex()
    return pins


def bound_pins() -> dict[str, str]:
    pins = {}
    for m, n, k in BOUND_GRID:
        shape = GemmShape(m, n, k)
        pins[_key("m", m, n, k)] = plan_bound(
            shape, CLUSTER, "m", adjust_m_plan(MPlan(), shape, CLUSTER)
        ).hex()
        pins[_key("k", m, n, k)] = plan_bound(
            shape, CLUSTER, "k", adjust_k_plan(KPlan(), shape, CLUSTER)
        ).hex()
    return pins


def _describe(value, spaces):
    """A closure argument as JSON: a tile as its memory space, byte
    offset (buffer and slot), shape and strides."""
    if isinstance(value, np.ndarray):
        ptr = value.__array_interface__["data"][0]
        for base, size, name in spaces:
            if base <= ptr < base + size:
                return ["tile", name, ptr - base, list(value.shape),
                        list(value.strides)]
        raise AssertionError("a closure holds an array outside the arena")
    if isinstance(value, slice):
        return ["slice", value.start, value.stop]
    if isinstance(value, (list, tuple)):
        return [_describe(v, spaces) for v in value]
    if value is None or isinstance(value, (int, str)):
        return value
    spec = getattr(value, "spec", None)
    if spec is not None:
        return ["kernel", type(value).__name__, spec.m_s, spec.n_a, spec.k_a]
    raise AssertionError(f"undescribed closure argument {value!r}")


def _describe_run(run, spaces):
    if run is None:
        return None
    if isinstance(run, partial):
        owner = getattr(run.func, "__self__", None)
        args = list(run.args) + sorted(run.keywords.items())
        if isinstance(owner, np.ndarray):
            args.insert(0, owner)
        return [run.func.__name__, _describe(args, spaces)]
    return [run.__name__, _describe(run.__defaults__ or (), spaces)]


def program_digest(program) -> str:
    """SHA-256 of a lowered program's ops, meta and closures."""
    sp = program.ctx.spaces
    spaces = [
        (s.arena.__array_interface__["data"][0], s.arena.nbytes, s.name)
        for s in (sp.gsm, *sp.am, *sp.sm)
    ]
    ops = []
    for core_ops in program.core_ops:
        for op in core_ops:
            desc = op.desc
            ops.append([
                op.kind.value, op.core, list(op.deps), op.tag,
                None if desc is None else [
                    desc.src.value, desc.dst.value, desc.rows,
                    desc.row_bytes, desc.tag,
                ],
                op.cycles, op.flops, op.sync_id, op.sync_seconds.hex(),
                op.seq, _describe_run(op.run, spaces),
            ])
    blob = json.dumps(
        [program.strategy, program.n_syncs,
         repr(sorted(program.meta.items())), ops]
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def op_pins(builder: str) -> dict[str, str]:
    lower = BUILDERS[builder]
    pins = {}
    for cores in (8, 3):
        cluster = CLUSTER.with_cores(cores)
        for m, n, k in OPS_GRID:
            try:
                program = lower(GemmShape(m, n, k), cluster)
            except ReproError as exc:
                pins[_key(cores, m, n, k)] = _error(exc)
                continue
            pins[_key(cores, m, n, k)] = program_digest(program)
    return pins


def observe() -> dict:
    return {
        "grid": {v: grid_pins(v) for v in VARIANTS},
        "ablations": ablation_pins(),
        "plan_bound": bound_pins(),
        "ops": {b: op_pins(b) for b in BUILDERS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_analytic_grid(golden, variant):
    assert grid_pins(variant) == golden["grid"][variant]


def test_grid_pins_f64_shape_errors(golden):
    """The 60 f64 points with N > 48 pin the error they raise."""
    errors = [key for key, pin in golden["grid"]["f64"].items()
              if pin.startswith("ShapeError")]
    assert len(errors) == 60
    assert all(int(key.split("x")[1]) > 48 for key in errors)


def test_ablations(golden):
    assert ablation_pins() == golden["ablations"]


def test_plan_bound(golden):
    assert bound_pins() == golden["plan_bound"]


@pytest.mark.parametrize("builder", list(BUILDERS))
def test_op_digests(golden, builder):
    assert op_pins(builder) == golden["ops"][builder]


def test_a_doctored_op_fails():
    """The digest sees one op's deps, tag or closure window move."""
    program = BUILDERS["m"](GemmShape(7, 16, 512), CLUSTER)
    digest = program_digest(program)
    op = program.core_ops[0][2]
    op.deps = op.deps + (0,)
    assert program_digest(program) != digest


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_analytic_golden.py --record")
    DATA.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {DATA}")
