#!/usr/bin/env python3
"""The repo benchmark: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload overload --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --seconds 12      # every workload, one process each

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (self times from wrappers around the layer entry points, see
``layers.py``).  Human-readable lines come first; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when an output check fails,
when the simulated figures differ between passes, or when there is no
``src/repro`` beside this directory to measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pinned before NumPy loads, for this process and every probe it starts:
# no kernel/plan disk cache, one BLAS thread
os.environ["REPRO_KERNEL_CACHE"] = "off"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402
import calib  # noqa: E402
import catalog  # noqa: E402
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: fresh-process set-up measurements per run; the run reports their median
SETUP_PROBES = 5
#: calibration loops a set-up probe times before it starts the clock
PROBE_CAL_ROUNDS = 5
#: timed passes a run makes even when one pass outlasts ``--seconds``
MIN_PASSES = 3
#: in a traced run: passes of each kind, traced and untraced
MIN_TRACED = 1


def _import_program() -> None:
    for module in ("repro", "repro.serve", "repro.core.ftimm"):
        importlib.import_module(module)


def probe_setup(name: str, seed: int) -> dict:
    """Set-up as a user pays it, in this fresh process: import, then ready."""
    import workloads  # NumPy loads here, before the clock starts

    workload = workloads.make(name, seed)
    slowdown = calib.slowdown(
        calib.loop_s(PROBE_CAL_ROUNDS), PROBE_CAL_ROUNDS
    )
    start = time.perf_counter()
    _import_program()
    import_s = time.perf_counter() - start
    return {
        "import_s": import_s,
        "ready_s": workload.setup(),
        "slowdown": slowdown,
    }


def _setup_s(probe: dict) -> float:
    """A probe's set-up seconds, rescaled to nominal machine speed."""
    return (probe["import_s"] + probe["ready_s"]) / probe["slowdown"]


def _probes(name: str, seed: int) -> list[dict]:
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def _per_layer(name, clock, traced, untraced, probes, sim, attempted, failed):
    """The per-layer figures of a traced run, named as in the catalog."""
    ops = sum(p.ops for p in traced)
    traced_wall = sum(p.wall_s for p in traced)
    self_s, calls, tally = clock.self_s, clock.calls, clock.tally

    def ms_per_op(layer):
        return self_s[layer] * 1e3 / ops

    def per_call(value, layer):
        return value / calls[layer] if calls[layer] else 0.0

    server = importlib.import_module("repro.serve.server")
    src_loc = sum(
        len(p.read_text().splitlines())
        for p in (SRC / "repro").rglob("*.py")
    )
    figures = {
        "serve.server.self_ms_per_req": ms_per_op("serve.server"),
        "serve.batcher.digest_ms_per_req": ms_per_op("serve.batcher.digest"),
        "serve.batcher.digest_calls_per_req": (
            calls["serve.batcher.digest"] / ops
        ),
        "serve.verify.ms_per_req": ms_per_op("serve.verify"),
        "serve.verify.calls_per_req": calls["serve.verify"] / ops,
        "core.batched.grouped_ms_per_req": ms_per_op("core.batched.grouped"),
        "hw.event_sim.events_per_call": per_call(
            tally["events"], "executor.timed"
        ),
        "executor.timed.us_per_event": (
            self_s["executor.timed"] * 1e6 / tally["events"]
            if tally["events"] else 0.0
        ),
        "hw.dma.mb_per_gemm": per_call(
            tally["dma_bytes"] / 1e6, "executor.timed"
        ),
        "hw.ddr_mean_concurrency": per_call(
            tally["ddr_concurrency"], "executor.timed"
        ),
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "host.raw_wall_ops_per_s": stats.run_value(
            p.ops / p.wall_s for p in untraced
        ),
        "host.raw_setup_s": statistics.median(
            p["import_s"] + p["ready_s"] for p in probes
        ),
        "host.slowdown": stats.run_value(
            calib.slowdown(p.cal_s, p.cal_rounds) for p in untraced
        ),
        "obs.trace_overhead_frac": (
            stats.run_value(p.ops_per_s for p in untraced)
            / stats.run_value(p.ops_per_s for p in traced) - 1
        ),
        "unattributed_ms_per_op": (
            (traced_wall - sum(self_s.values())) * 1e3 / ops
        ),
        "ops_failed_frac": failed / attempted,
        "code.src_loc": src_loc,
        "code.serve_config_fields": len(
            dataclasses.fields(server.ServeConfig)
        ),
    }
    for layer in ("core.lowering", "executor.functional",
                  "executor.analytic", "executor.timed", "core.tuner"):
        figures[f"{layer}.ms_per_call"] = per_call(
            self_s[layer] * 1e3, layer
        )
        figures[f"{layer}.calls_per_op"] = calls[layer] / ops
    ready = statistics.median(p["ready_s"] for p in probes)
    figures["setup.first_touch_s" if name == "gemm_grid"
            else "serve.scheduler.warm_s"] = ready
    figures.update({k: v for k, v in sim.items() if k in catalog.PER_LAYER})
    return {
        metric: {"value": figures.get(metric, 0.0), "unit": spec.unit}
        for metric, spec in catalog.PER_LAYER.items()
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    probes = _probes(name, seed)

    import layers
    import workloads

    workload = workloads.make(name, seed)
    _import_program()
    workload.setup()
    passes, untraced, traced = [], [], []
    clock = layers.LayerClock()
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or len(untraced) < (MIN_TRACED if trace else MIN_PASSES)
        or (trace and len(traced) < MIN_TRACED)
    ):
        if trace and len(traced) < len(untraced):
            with clock.patched(layers.program_layers()):
                one = workload.run_pass()
            traced.append(one)
        else:
            one = workload.run_pass()
            untraced.append(one)
        passes.append(one)
    first = passes[0]
    sim = {**first.sim, **workload.model_figures()}

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    for one in passes[1:]:
        if one.sim != first.sim:
            print(f"{name}: simulated figures differ between passes",
                  file=sys.stderr)
            failed += one.ops
    if trace:
        metrics = _per_layer(
            name, clock, traced, untraced, probes, sim, attempted, failed
        )
    else:
        values = {
            "wall_ops_per_s": stats.run_value(
                p.ops_per_s for p in untraced
            ),
            "setup_s": statistics.median(_setup_s(p) for p in probes),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ),
            **sim,
        }
        metrics = {
            # a metric a failed run could not compute reads 0
            metric: {"value": values.get(metric, 0.0), "unit": spec.unit}
            for metric, spec in catalog.END_TO_END.items()
        }

    print(f"workload {name}  seed {seed}  trace {int(trace)}: "
          f"{len(untraced)} timed + {len(traced)} traced passes, "
          f"{attempted} ops, {failed} failed "
          f"(ops_failed_frac {failed / attempted:g})")
    for metric, m in metrics.items():
        print(f"  {metric:38s} {m['value']:14.6g} {m['unit']}")
    print("sim_digest " + hashlib.sha256(
        json.dumps(sim, sort_keys=True).encode()).hexdigest())
    print(f"provenance python {platform.python_version()} numpy "
          f"{numpy.__version__} nproc {len(os.sched_getaffinity(0))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0
    if args.workload:
        return run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    # every workload in a process of its own
    codes = [
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=600,
        ).returncode
        for name in catalog.WORKLOADS
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
