"""Run every experiment and regenerate EXPERIMENTS.md.

Usage::

    python -m repro.experiments.run_all [output.md] [--json data.json] [--jobs N]

Writes the paper-vs-measured record for Tables I-III and Figures 3-7
(plus the ext_* extensions); ``--json`` additionally dumps every series
and claim as machine-readable data for external plotting.  ``--jobs``
(default: the CPU count) fans the experiment modules out across worker
processes; results are collected in module order, so the generated
markdown is identical for every job count.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from ..analysis.tables import ExperimentResult
from ..errors import WorkerError
from . import (
    ext_autotune,
    ext_bandwidth,
    ext_fp64,
    ext_hetero,
    ext_multicluster,
    ext_sensitivity,
    ext_workloads,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    tables123,
)

MODULES = [
    tables123, fig3, fig4, fig5, fig6, fig7,
    ext_fp64, ext_multicluster, ext_autotune, ext_workloads,
    ext_sensitivity, ext_hetero, ext_bandwidth,
]


def cli_name(module) -> str:
    """A module's ``repro experiment`` name: no ``ext_``, ``tables123`` as
    ``tables``."""
    name = module.__name__.rsplit(".", 1)[-1].removeprefix("ext_")
    return "tables" if name == "tables123" else name


HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in the evaluation of
*"Optimizing Irregular-Shaped Matrix-Matrix Multiplication on Multi-Core
DSPs"* (CLUSTER 2022), measured on the simulated FT-m7032 GPDSP cluster of
this repository (see DESIGN.md for the substitution rationale).  Absolute
GFLOPS are modeled, not silicon measurements; the claims tables record
whether each of the paper's qualitative/quantitative observations holds.

The ``ext_*`` experiments at the end are extensions beyond the paper's
evaluation (FP64 kernels, multi-cluster scaling, model-driven tuning);
their "paper" column records the extension's stated expectation.

Regenerate with `python -m repro.experiments.run_all`.
"""


def _run_module(name: str) -> list[ExperimentResult]:
    """Picklable work unit: run one experiment module by name."""
    module = next(m for m in MODULES if m.__name__ == name)
    return module.run()


def _map_modules(names: list[str], jobs: int) -> list[list[ExperimentResult]]:
    """``[_run_module(n) for n in names]`` on ``jobs`` worker processes.

    ``Executor.map`` returns in input order, so every job count gives the
    same results.  One job runs in-process, and so does a host that
    refuses to create a pool (``OSError``).  A crashed worker
    breaks the pool: the map is resubmitted once to a fresh one, and a
    second crash raises :class:`~repro.errors.WorkerError`.  An exception
    raised by a module propagates unchanged.
    """
    if jobs > 1:
        for _attempt in range(2):
            try:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    return list(pool.map(_run_module, names))
            except OSError:
                break
            except BrokenProcessPool:
                continue
        else:
            raise WorkerError(
                f"a pool worker crashed running {len(names)} experiment "
                f"modules, and again after one resubmit"
            )
    return [_run_module(name) for name in names]


def run_everything(jobs: int | None = None) -> list[ExperimentResult]:
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(MODULES)))
    results: list[ExperimentResult] = []
    t0 = time.perf_counter()
    # module *names* are the work items: they pickle cheaply and read
    # well in a traceback
    per_module = _map_modules([m.__name__ for m in MODULES], jobs)
    dt = time.perf_counter() - t0
    for module, module_results in zip(MODULES, per_module):
        print(f"[{module.__name__}] {len(module_results)} experiments")
        results.extend(module_results)
    print(f"ran {len(MODULES)} experiment modules on {jobs} workers in {dt:.1f}s")
    return results


def write_markdown(results: list[ExperimentResult], path: Path) -> None:
    total = sum(len(r.claims) for r in results)
    held = sum(sum(c.holds for c in r.claims) for r in results)
    parts = [HEADER]
    parts.append(f"**Claims held: {held} / {total}.**\n")
    for result in results:
        parts.append(result.to_markdown())
    path.write_text("\n".join(parts))
    print(f"wrote {path} ({held}/{total} claims hold)")


def write_json(results: list[ExperimentResult], path: Path) -> None:
    path.write_text(json.dumps([r.to_dict() for r in results], indent=1))
    print(f"wrote {path}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse the command line; a bad one exits 2 with a usage message."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description="Run every experiment and regenerate EXPERIMENTS.md.",
    )
    parser.add_argument(
        "output", nargs="?", type=Path,
        default=Path(__file__).resolve().parents[3] / "EXPERIMENTS.md",
        help="markdown record to write (default: EXPERIMENTS.md)",
    )
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also dump every series and claim as JSON")
    parser.add_argument("--jobs", type=int, metavar="N",
                        help="worker processes (default: the CPU count; "
                             "1 = in-process)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    results = run_everything(args.jobs)
    for result in results:
        print()
        print(result.render(chart=True))
    write_markdown(results, args.output)
    if args.json is not None:
        write_json(results, args.json)


if __name__ == "__main__":
    main()
