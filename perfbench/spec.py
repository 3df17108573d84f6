#!/usr/bin/env python3
"""Write ``BENCHMARK.json`` from the catalog, and measure run-to-run spread.

    python3 perfbench/spec.py                      # write BENCHMARK.json
    python3 perfbench/spec.py --measure --runs 10  # also record spread.json

``--measure`` runs every workload once per seed (``--first-seed`` on),
each run in its own process, as the command in ``BENCHMARK.json`` runs,
and stores every end-to-end value, each metric's interquartile spread
over its median and the machine it ran on in ``perfbench/spread.json``.
It also makes one traced run per workload and fails unless its
simulated figures equal the untraced run's of the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import catalog
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 12


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, why in catalog.WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for name, m in catalog.END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": m.unit, "better": m.better}
            for name, m in catalog.PER_LAYER.items()
        ],
    }


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """One benchmark run from the repo root: its result and sim digest."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{done.stdout}{done.stderr}")
    digest = next(
        line.split()[1] for line in lines if line.startswith("sim_digest ")
    )
    return json.loads(lines[-1]), digest


def provenance() -> dict:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True,
    ).stdout.strip()
    import numpy

    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(workloads, runs: int, first_seed: int) -> dict:
    seeds = list(range(first_seed, first_seed + runs))
    record = {"provenance": provenance(), "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {m: [] for m in catalog.END_TO_END}
        digests = {}
        for seed in seeds:
            result, digests[seed] = run_once(workload, seed, trace=0)
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m} {v[-1]:.5g}" for m, v in values.items()), flush=True)
        _traced, traced_digest = run_once(workload, seeds[0], trace=1)
        if traced_digest != digests[seeds[0]]:
            raise SystemExit(f"{workload}: traced sim figures differ")
        record["workloads"][workload] = {
            metric: {
                "median": statistics.median(vals),
                "spread": stats.spread(vals),
                "values": vals,
            }
            for metric, vals in values.items()
        }
        for metric, row in record["workloads"][workload].items():
            bound = catalog.END_TO_END[metric].bound
            flag = "" if row["spread"] < bound / 3 else "  <-- wide"
            print(f"  {workload:10s} {metric:22s} spread "
                  f"{row['spread']:.4f} bound {bound}{flag}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--measure", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=list(catalog.WORKLOADS))
    args = parser.parse_args(argv)
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(benchmark_json(), indent=2) + "\n"
    )
    if args.measure:
        record = measure(
            args.workload or list(catalog.WORKLOADS), args.runs,
            args.first_seed,
        )
        (HERE / "spread.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
