"""Golden pins of the timed executor: bit-exact DES results per plan.

``des_golden.json`` lists plans and, for each, what :func:`run_timed`
returned when the file was recorded: ``float.hex`` of the makespan and
of each per-core busy time and the mean DDR concurrency, the event
count and the DMA bytes; for faulted runs also the injector's counters
or the raised error and the simulated time of the raise; one profiled
run's per-epoch :class:`~repro.obs.profile.RunProfile` and metrics, and
traced runs' span lists (in full, or as a count and SHA-256 digest for
the long ones).  Spans are recorded as work completes, so their ids pin
the order of completions that land at one instant.  Any change to the
simulator that moves a tie, an event or a float fails here.

The plans are the irregular grid at seeds 0 and 1 (ftIMM and TGEMM, as
the benchmark's gemm_grid workload draws it), traced ftIMM and TGEMM
runs of one shape per grid type, a forced K-parallel shape, twenty
seeded random op streams, a traced stream built of ties (equal-cycle
kernels and equal-byte DMAs on every core, both DMA channels saturated)
and faulted runs (DMA retries and their exhaustion, DDR degradation
windows, timed core faults, and the traced re-dispatch attempts of core
faults under DMA retries).

Re-record only on purpose, when a change is meant to move simulated
results::

    PYTHONPATH=src python tests/test_des_golden.py --record

A change that moves only how the simulator counts its work re-pins the
counts alone::

    PYTHONPATH=src python tests/test_des_golden.py --record-counts

This rewrites the ``events_processed``, ``sim/events_processed`` and
``sim/heap_peak`` pins and nothing else.  If any other pin differs it
writes nothing, names each case and key that differ, and exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.core.ftimm import ftimm_gemm, lowered_program, tgemm_gemm
from repro.core.plans import OpStreamBuilder
from repro.core.shapes import GemmShape
from repro.errors import CoreFailureError, FaultError
from repro.executor.timed import run_timed
from repro.faults.inject import FaultInjector
from repro.faults.plan import CoreFault, DegradationWindow, FaultPlan
from repro.hw.config import default_machine
from repro.hw.dma import DmaDescriptor
from repro.hw.memory import MemKind
from repro.obs import MetricsRegistry, collecting
from repro.obs.trace import Tracer, tracing
from test_des_stress import build_random_plan

DATA = Path(__file__).with_name("des_golden.json")

#: the irregular grid at seeds 0 and 1 (perfbench ``grid_shapes``)
GRID = {
    0: [(8192, n, 512) for n in (16, 32, 64)]
    + [(64, n, 16384) for n in (16, 32, 64)]
    + [(2048, n, 2048) for n in (16, 32, 64)],
    1: [(8192, n, 512) for n in (16, 32, 64)]
    + [(64, n, 16480) for n in (16, 32, 64)]
    + [(2064, n, 2064) for n in (16, 32, 64)],
}


def _pin(value):
    """JSON-able copy with every float as its exact ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _pin(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_pin(v) for v in value]
    return value


def _timed_pins(res) -> dict:
    return _pin({
        "seconds": res.seconds,
        "events_processed": res.events_processed,
        "dma_bytes": res.dma_bytes,
        "core_busy": res.core_busy,
        "ddr_mean_concurrency": res.ddr_mean_concurrency,
        "ddr_utilization": res.ddr_utilization,
    })


def _program(case: dict):
    """The lowered plan of a ``gemm`` case, as the drivers tune it."""
    m, n, k = case["shape"]
    if case["impl"] == "tgemm":
        res = tgemm_gemm(m, n, k, timing="none")
    else:
        res = ftimm_gemm(m, n, k, timing="none",
                         force_strategy=case.get("strategy"))
    cluster = default_machine().cluster
    return lowered_program(GemmShape(m, n, k), cluster, res.decision)


def build_tie_plan(cluster, n_epochs: int = 2, iters: int = 40):
    """An op stream made of ties: every core runs the same program of
    equal-byte DMAs and equal-cycle kernels.

    Each iteration loads three equal tiles from DDR and one from GSM, so
    both DMA channels stay busy with more transfers queued behind them;
    a kernel of ``startup_cycles`` cycles (its completion ties with a
    DMA's startup) consumes two of them, a dependency-free kernel of the
    same length runs beside it, and a store of the result back to DDR
    waits for the first kernel.  Streams are longer than the in-flight
    window, so window stalls release ops as others complete.
    """
    builder = OpStreamBuilder(cluster.n_cores)
    cycles = cluster.dma.startup_cycles
    load = DmaDescriptor(MemKind.DDR, MemKind.AM, 8, 512, tag="load")
    near = DmaDescriptor(MemKind.GSM, MemKind.SM, 8, 512, tag="near")
    store = DmaDescriptor(MemKind.AM, MemKind.DDR, 8, 512, tag="store")
    for _epoch in range(n_epochs):
        for i in range(iters):
            slot = i % 2
            for core in range(cluster.n_cores):
                builder.dma(core, load, buffer="a", slot=slot)
                builder.dma(core, load, buffer="b", slot=slot)
                builder.dma(core, load, buffer="c", slot=slot)
                builder.dma(core, near, buffer="d", slot=slot)
                k = builder.kernel(core, cycles, cycles,
                                   reads=(("a", slot), ("b", slot)),
                                   tag="mac")
                builder.kernel(core, cycles, cycles, tag="free")
                builder.dma(core, store, extra_deps=(k,))
                builder.consume(core, "c", slot, k)
                builder.consume(core, "d", slot, k)
        builder.sync(tag="epoch")
    return builder.finish(GemmShape(1, 1, 1), "ties", cluster)


def _fault_plan(spec: dict) -> FaultPlan:
    spec = dict(spec)
    spec["ddr_degradation"] = tuple(
        DegradationWindow(*w) for w in spec.get("ddr_degradation", ())
    )
    spec["core_faults"] = tuple(
        CoreFault(**cf) for cf in spec.get("core_faults", ())
    )
    return FaultPlan(**spec)


def _traced(program, inj, digest: bool) -> dict:
    """Pins of one traced run: the span list, or its count and digest."""
    with tracing(Tracer()) as tracer:
        res = run_timed(program, faults=inj)
    spans = _pin([
        [s.span_id, s.parent_id, s.name, s.category, s.start_s,
         s.end_s, s.track, s.args]
        for s in tracer.spans
    ])
    if not digest:
        return {**_timed_pins(res), "spans": spans}
    blob = json.dumps(spans, sort_keys=True).encode()
    return {**_timed_pins(res), "span_count": len(spans),
            "spans_sha256": hashlib.sha256(blob).hexdigest()}


def _recovery(program, plan: FaultPlan) -> list[dict]:
    """Traced attempts of a plan whose core faults re-dispatch, as the
    resilient drivers make them: each dead core's op stream moves to a
    survivor, round-robin, until an attempt finishes."""
    n_cores = default_machine().cluster.n_cores
    dead, attempts = [], []
    while True:
        live = [c for c in range(n_cores) if c not in dead]
        hosts = {d: live[i % len(live)] for i, d in enumerate(sorted(dead))}
        inj = FaultInjector(plan, len(attempts), hosts)
        try:
            pins = _traced(program, inj, digest=True)
        except CoreFailureError as exc:
            attempts.append(_pin({"raised": exc.core, "at_s": exc.at_s,
                                  "counters": inj.counters}))
            dead.append(exc.core)
            continue
        attempts.append({**pins, "counters": _pin(inj.counters)})
        return attempts


def observe(case: dict) -> dict:
    """Run one case and return its pins."""
    kind = case["kind"]
    if kind == "ties":
        return _traced(build_tie_plan(default_machine().cluster), None,
                       digest=True)
    if kind == "stress":
        cluster = default_machine().cluster
        plan, _cycles, _ddr = build_random_plan(
            cluster, random.Random(case["seed"]),
            case["n_epochs"], case["ops_per_epoch"],
        )
        return _timed_pins(run_timed(plan))
    program = _program(case)
    if kind == "gemm":
        return _timed_pins(run_timed(program))
    if kind == "faulted":
        inj = FaultInjector(_fault_plan(case["faults"]), 0)
        try:
            res = run_timed(program, faults=inj,
                            record_bandwidth=case.get("record_bandwidth", False))
        except FaultError as exc:
            return _pin({
                "raised": type(exc).__name__,
                "message": str(exc),
                "core": getattr(exc, "core", None),
                "at_s": getattr(exc, "at_s", None),
                "counters": inj.counters,
            })
        return {**_timed_pins(res), "counters": _pin(inj.counters)}
    if kind == "profile":
        with collecting(MetricsRegistry()) as metrics:
            res = run_timed(program)
        snap = {
            name: value for name, value in metrics.snapshot().items()
            if name != "sim/process_wakeups"
        }
        return {**_timed_pins(res), "profile": _pin(res.profile.to_dict()),
                "metrics": _pin(snap)}
    if kind == "trace":
        inj = None
        if "faults" in case:
            inj = FaultInjector(_fault_plan(case["faults"]), 0)
        return _traced(program, inj, digest=case.get("digest", False))
    if kind == "recovery":
        return {"attempts": _recovery(program, _fault_plan(case["faults"]))}
    raise ValueError(f"unknown case kind {kind!r}")


def _cases() -> list[dict]:
    cases = []
    for seed, shapes in GRID.items():
        for impl in ("ftimm", "tgemm"):
            for shape in shapes:
                cases.append({
                    "id": f"grid{seed}-{impl}-{'x'.join(map(str, shape))}",
                    "kind": "gemm", "impl": impl, "shape": list(shape),
                })
    cases.append({"id": "kpar-64x64x4096", "kind": "gemm", "impl": "ftimm",
                  "shape": [64, 64, 4096], "strategy": "k"})
    for seed in range(20):
        cases.append({
            "id": f"stress{seed}", "kind": "stress", "seed": seed,
            "n_epochs": 1 + seed % 4,
            "ops_per_epoch": (3, 30, 250, 1400)[seed % 4] + seed,
        })
    faulted = [
        ("dma-retry-m", "ftimm", [2048, 32, 2048],
         {"seed": 7, "dma_fail_rate": 0.05}),
        ("dma-retry-k", "ftimm", [64, 16, 16384],
         {"seed": 3, "dma_fail_rate": 0.2}),
        ("dma-retry-tgemm", "tgemm", [2048, 16, 2048],
         {"seed": 5, "dma_fail_rate": 0.1, "backoff_base_cycles": 500}),
        ("dma-exhausted", "ftimm", [512, 16, 512],
         {"seed": 1, "dma_fail_rate": 0.5, "max_dma_retries": 1}),
        ("ddr-degraded", "ftimm", [8192, 16, 512],
         {"ddr_degradation": [[1e-4, 2.5e-4, 0.5], [4e-4, 4.5e-4, 0.25]]}),
        ("ddr-degraded-retry", "tgemm", [8192, 32, 512],
         {"seed": 2, "dma_fail_rate": 0.05,
          "ddr_degradation": [[0.0, 3e-4, 0.3]]}),
        ("core-fault-m", "ftimm", [2048, 32, 2048],
         {"core_faults": [{"core": 3, "after_s": 3e-4}]}),
        ("core-fault-k", "ftimm", [64, 64, 4096],
         {"core_faults": [{"core": 0, "after_s": 2e-5}]}),
        ("core-fault-tgemm", "tgemm", [512, 16, 512],
         {"core_faults": [{"core": 0, "after_s": 1e-5}]}),
    ]
    for name, impl, shape, spec in faulted:
        case = {"id": f"faulted-{name}", "kind": "faulted", "impl": impl,
                "shape": shape, "faults": spec}
        if name == "ddr-degraded":
            case["record_bandwidth"] = True
        cases.append(case)
    cases.append({"id": "profile-8192x16x512", "kind": "profile",
                  "impl": "ftimm", "shape": [8192, 16, 512]})
    cases.append({"id": "profile-kpar-64x64x4096", "kind": "profile",
                  "impl": "ftimm", "shape": [64, 64, 4096], "strategy": "k"})
    cases.append({"id": "trace-512x16x512-dma-retry", "kind": "trace",
                  "impl": "ftimm", "shape": [512, 16, 512],
                  "faults": {"seed": 4, "dma_fail_rate": 0.1}})
    for impl in ("ftimm", "tgemm"):
        for shape in GRID[0][::3]:
            cases.append({
                "id": f"trace-{impl}-{'x'.join(map(str, shape))}",
                "kind": "trace", "impl": impl, "shape": list(shape),
                "digest": True,
            })
    cases.append({"id": "ties-8core", "kind": "ties"})
    recovery = [
        ("m", "ftimm", [2048, 32, 2048],
         {"seed": 7, "dma_fail_rate": 0.05,
          "core_faults": [{"core": 3, "after_s": 3e-4},
                          {"core": 4, "after_s": 2e-4}]}),
        ("tgemm", "tgemm", [2048, 16, 2048],
         {"seed": 5, "dma_fail_rate": 0.1,
          "core_faults": [{"core": 0, "after_s": 1e-4}]}),
    ]
    for name, impl, shape, spec in recovery:
        cases.append({"id": f"recovery-{name}", "kind": "recovery",
                      "impl": impl, "shape": shape, "faults": spec})
    return cases


def _load() -> list[dict]:
    if not DATA.exists():  # recording; test_case_list_is_recorded fails
        return []
    return json.loads(DATA.read_text())["cases"]


@pytest.mark.parametrize("case", _load(), ids=lambda c: c["id"])
def test_des_golden(case):
    assert observe(case) == case["pins"]


def test_record_counts_rewrites_only_work_counts():
    """``--record-counts`` takes new event counts and heap peaks, and
    names every other pin that moved instead of taking it."""
    recorded = {
        "events_processed": 10, "seconds": "0x1.0p-10",
        "metrics": {"sim/heap_peak": {"type": "gauge", "value": 3},
                    "bw/ddr/busy_s": {"type": "counter", "value": "0x1.0p-11"}},
        "attempts": [{"events_processed": 4, "raised": 2}],
    }
    counts_moved = {
        "events_processed": 7, "seconds": "0x1.0p-10",
        "metrics": {"sim/heap_peak": {"type": "gauge", "value": 2},
                    "bw/ddr/busy_s": {"type": "counter", "value": "0x1.0p-11"}},
        "attempts": [{"events_processed": 3, "raised": 2}],
    }
    assert recount(recorded, counts_moved) == (counts_moved, [])
    float_moved = {**counts_moved, "seconds": "0x1.0000000000001p-10",
                   "attempts": [{"events_processed": 3, "raised": 5}]}
    _merged, differ = recount(recorded, float_moved)
    assert differ == ["/seconds", "/attempts[0]/raised"]


def test_case_list_is_recorded():
    """Every case the module defines has recorded pins, and no others."""
    assert [c["id"] for c in _load()] == [c["id"] for c in _cases()]


#: the pins ``--record-counts`` may rewrite: how much work the simulator
#: counted, not what it computed
COUNT_KEYS = frozenset({"events_processed", "sim/events_processed",
                        "sim/heap_peak"})


def recount(recorded, observed, path: str = ""):
    """``recorded`` with every :data:`COUNT_KEYS` pin taken from
    ``observed``, and the paths of any other pins that differ."""
    if isinstance(recorded, dict) and isinstance(observed, dict):
        if recorded.keys() != observed.keys():
            return recorded, [path or "."]
        merged, differ = {}, []
        for key, value in recorded.items():
            if key in COUNT_KEYS:
                merged[key] = observed[key]
                continue
            merged[key], sub = recount(value, observed[key], f"{path}/{key}")
            differ += sub
        return merged, differ
    if (isinstance(recorded, list) and isinstance(observed, list)
            and len(recorded) == len(observed)):
        merged, differ = [], []
        for i, (old, new) in enumerate(zip(recorded, observed)):
            value, sub = recount(old, new, f"{path}[{i}]")
            merged.append(value)
            differ += sub
        return merged, differ
    return recorded, ([] if recorded == observed else [path or "."])


def _count_totals(pins) -> dict[str, int]:
    """The sum of each :data:`COUNT_KEYS` pin's numbers over ``pins``."""
    totals: dict[str, int] = {}

    def add(key, value):
        if isinstance(value, dict):  # a metric: count its value
            value = value["value"]
        totals[key] = totals.get(key, 0) + value

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in COUNT_KEYS:
                    add(key, value)
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(pins)
    return totals


def record_counts() -> int:
    """Re-pin the work counts only; see the module docstring."""
    cases, differ = [], []
    for case in _load():
        pins, sub = recount(case["pins"], observe(case))
        differ += [f"{case['id']}: {key}" for key in sub]
        cases.append({**case, "pins": pins})
    if differ:
        print("pins other than work counts differ; nothing written:",
              *differ, sep="\n  ", file=sys.stderr)
        return 1
    before = _count_totals([c["pins"] for c in _load()])
    after = _count_totals([c["pins"] for c in cases])
    for key in sorted(before):
        print(f"{key}: {before[key]} -> {after[key]}", file=sys.stderr)
    DATA.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record-counts"]:
        sys.exit(record_counts())
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    recorded = []
    for case in _cases():
        recorded.append({**case, "pins": observe(case)})
        print(case["id"], file=sys.stderr)
    DATA.write_text(json.dumps({"cases": recorded}, indent=1) + "\n")
