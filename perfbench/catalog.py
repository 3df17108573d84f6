"""What the benchmark measures, and why: its single source of truth.

``spec.py`` renders ``BENCHMARK.json`` from these tables, ``run.py``
prints exactly these metrics, and the tests hold the two in step.  Each
per-layer metric names the end-to-end metric and workloads it should
move, written down before any change is measured against it.
"""

from __future__ import annotations

from dataclasses import dataclass

SERVE = ("overload", "chaos")
ALL = ("overload", "chaos", "gemm_grid")

#: workload -> the reason it exists (one line each)
WORKLOADS = {
    "overload": (
        "8x150-request edf overload mix, opt-in serve layers off: "
        "large operands, where B digest, clean functional execution and "
        "verify dominate"
    ),
    "chaos": (
        "8x150-request mixed stream through the gateway with faults, "
        "quarantine, placement and ABFT repair: the faulted path of the "
        "same layers"
    ),
    "gemm_grid": (
        "the paper's irregular grid (3 types x N in 16/32/64), ftIMM and "
        "TGEMM under DES plus analytic: tuner, lowering and the DES that "
        "no serve workload runs"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    unit: str
    better: str
    #: share of the parent's median the metric may worsen by: about three
    #: times the run-to-run spread on record in spread.json, at most 0.25
    bound: float
    clock: str  # "host" (the host's wall clock) or "sim" (FT-m7032)
    definition: str


@dataclass(frozen=True)
class PerLayer:
    unit: str
    better: str
    #: the end-to-end metric this layer metric should move ...
    moves: str
    #: ... on these workloads (elsewhere the prediction is no change)
    on: tuple[str, ...]
    definition: str


END_TO_END = {
    "wall_ops_per_s": EndToEnd(
        "1/s", "higher", 0.25, "host",
        "requests (serve) or grid points (grid) per wall-second after "
        "set-up, rescaled to nominal machine speed by calib.py; the median "
        "over the run's passes of the fixed stream",
    ),
    "setup_s": EndToEnd(
        "s", "lower", 0.25, "host",
        "import of repro to ready in a fresh process with cold caches "
        "(serve: ServeEngine built and warm_engine done; grid: first-touch "
        "tune and kernels of every grid shape), rescaled like "
        "wall_ops_per_s; median of several probes",
    ),
    "peak_rss_mb": EndToEnd(
        "MB", "lower", 0.25, "host",
        "peak resident set of the workload process",
    ),
    "goodput_rps": EndToEnd(
        "1/s", "higher", 0.15, "sim",
        "serve: completions within SLO per simulated second over the "
        "1,200 requests; grid: ftIMM calls per simulated second, the grid "
        "run back to back",
    ),
    "latency_p50_ms": EndToEnd(
        "ms", "lower", 0.1, "sim",
        "serve: median latency of completed requests; grid: median ftIMM "
        "DES time over the points",
    ),
    "latency_p99_ms": EndToEnd(
        "ms", "lower", 0.1, "sim",
        "serve: nearest-rank p99 latency over the 1,200 requests (12 "
        "samples beyond it); grid: the slowest point's ftIMM DES time",
    ),
    "sim_gflops": EndToEnd(
        "GFLOPS", "higher", 0.05, "sim",
        "serve: completed flops over summed batch busy time; grid: geomean "
        "of ftIMM DES GFLOPS over the points",
    ),
    "sim_speedup_vs_tgemm": EndToEnd(
        "x", "higher", 0.05, "sim",
        "TGEMM over ftIMM DES time; grid: geomean over the points, serve: "
        "summed over one pass's batches, once per run, untimed",
    ),
    "model_err_p95": EndToEnd(
        "frac", "lower", 0.05, "sim",
        "nearest-rank p95 of |analytic - DES| / DES; grid: over ftIMM and "
        "TGEMM at every point, serve: over ftIMM at the distinct stacked "
        "batch shapes",
    ),
}

_SERVE_WALL = ("wall_ops_per_s", SERVE)

PER_LAYER = {
    "serve.server.self_ms_per_req": PerLayer(
        "ms", "lower", *_SERVE_WALL,
        "ServeEngine offer/advance/finish self time: event loop and "
        "bookkeeping",
    ),
    "serve.batcher.digest_ms_per_req": PerLayer(
        "ms", "lower", "wall_ops_per_s", ("overload",),
        "b_digest as resolved in repro.serve.batcher",
    ),
    "serve.batcher.digest_calls_per_req": PerLayer(
        "count", "lower", "wall_ops_per_s", ("overload",),
        "b_digest calls per request",
    ),
    "serve.verify.ms_per_req": PerLayer(
        "ms", "lower", *_SERVE_WALL,
        "standalone ftimm_gemm recomputes as resolved in "
        "repro.serve.server, self time",
    ),
    "serve.verify.calls_per_req": PerLayer(
        "count", "lower", *_SERVE_WALL, "verify recomputes per request",
    ),
    "serve.verify.repaired": PerLayer(
        "count", "lower", "wall_ops_per_s", ("chaos",),
        "requests whose stacked bits verify replaced, per pass; zero on "
        "overload, the target for bit-identical stacking",
    ),
    "core.batched.grouped_ms_per_req": PerLayer(
        "ms", "lower", *_SERVE_WALL,
        "grouped_gemm as resolved in repro.serve.server, self time",
    ),
    "core.lowering.ms_per_call": PerLayer(
        "ms", "lower", "wall_ops_per_s", ALL,
        "build_parallel_m/_k and build_tgemm as resolved in "
        "repro.core.ftimm, self time per call",
    ),
    "core.lowering.calls_per_op": PerLayer(
        "count", "lower", "wall_ops_per_s", ALL, "lowerings per operation",
    ),
    "executor.functional.ms_per_call": PerLayer(
        "ms", "lower", *_SERVE_WALL, "run_functional self time per call",
    ),
    "executor.functional.calls_per_op": PerLayer(
        "count", "lower", *_SERVE_WALL, "functional runs per operation",
    ),
    "executor.analytic.ms_per_call": PerLayer(
        "ms", "lower", *_SERVE_WALL,
        "analytic_parallel_m/_k and analytic_tgemm self time per call",
    ),
    "executor.analytic.calls_per_op": PerLayer(
        "count", "lower", *_SERVE_WALL, "analytic timings per operation",
    ),
    "executor.timed.ms_per_call": PerLayer(
        "ms", "lower", "wall_ops_per_s", ("gemm_grid",),
        "run_timed (the DES) self time per call",
    ),
    "hw.event_sim.events_per_call": PerLayer(
        "count", "lower", "wall_ops_per_s", ("gemm_grid",),
        "TimedResult.events_processed per DES call",
    ),
    "executor.timed.us_per_event": PerLayer(
        "us", "lower", "wall_ops_per_s", ("gemm_grid",),
        "DES self time per processed event",
    ),
    "core.tuner.ms_per_call": PerLayer(
        "ms", "lower", "wall_ops_per_s", ALL,
        "tune as resolved in repro.core.ftimm, self time per call; also "
        "moves setup_s",
    ),
    "core.tuner.calls_per_op": PerLayer(
        "count", "lower", "wall_ops_per_s", ALL, "tunes per operation",
    ),
    "setup.import_s": PerLayer(
        "s", "lower", "setup_s", ALL,
        "import of repro in a fresh process, median of the probes",
    ),
    "serve.scheduler.warm_s": PerLayer(
        "s", "lower", "setup_s", SERVE,
        "ServeEngine construction and warm_engine, median of the probes",
    ),
    "setup.first_touch_s": PerLayer(
        "s", "lower", "setup_s", ("gemm_grid",),
        "first-touch tune and kernel generation of the grid shapes, "
        "median of the probes",
    ),
    "host.raw_wall_ops_per_s": PerLayer(
        "1/s", "higher", "wall_ops_per_s", ALL,
        "wall_ops_per_s before rescaling to nominal machine speed",
    ),
    "host.raw_setup_s": PerLayer(
        "s", "lower", "setup_s", ALL,
        "setup_s before rescaling to nominal machine speed",
    ),
    "host.slowdown": PerLayer(
        "x", "lower", "none", (),
        "calibration loop time over its nominal time, median over the "
        "untraced passes: the machine's speed during the run",
    ),
    "obs.trace_overhead_frac": PerLayer(
        "frac", "lower", "wall_ops_per_s", (),
        "untraced over traced pass rate (both rescaled), minus 1: the "
        "cost of the benchmark's own wrappers, which no program change "
        "should move",
    ),
    "unattributed_ms_per_op": PerLayer(
        "ms", "lower", "wall_ops_per_s", SERVE,
        "traced wall no wrapped layer covers (gateway, asyncio, the "
        "client loop), per operation",
    ),
    **{
        f"sim.p99.{seg}_ms": PerLayer(
            "ms", "lower", "latency_p99_ms", SERVE,
            f"mean simulated {seg} segment of the requests at or above "
            "the p99 latency, from repro.analysis.critical_path",
        )
        for seg in ("queue", "batch", "tune", "stage", "retry", "gemm")
    },
    "serve.batcher.mean_batch": PerLayer(
        "count", "higher", "goodput_rps", SERVE, "requests per batch",
    ),
    "serve.scheduler.utilization": PerLayer(
        "frac", "higher", "goodput_rps", SERVE,
        "batch busy time over clusters x makespan",
    ),
    "serve.placement.promotions": PerLayer(
        "count", "higher", "goodput_rps", ("chaos",),
        "replica promotions per pass; 0 on overload",
    ),
    "serve.placement.resident_frac": PerLayer(
        "frac", "higher", "goodput_rps", ("chaos",),
        "batches that ran on a cluster holding their B replica; 0 on "
        "overload",
    ),
    "serve.degrade.quarantines": PerLayer(
        "count", "lower", "slo_miss_frac", ("chaos",),
        "cluster quarantines per pass",
    ),
    "serve.degrade.shed": PerLayer(
        "count", "lower", "slo_miss_frac", ("chaos",),
        "typed sheds per pass",
    ),
    "faults.redispatches": PerLayer(
        "count", "lower", "slo_miss_frac", ("chaos",),
        "batch re-dispatches after a fault, per pass",
    ),
    "slo_miss_frac": PerLayer(
        "frac", "lower", "goodput_rps", SERVE,
        "offered requests that missed their SLO, were shed or failed; a "
        "per-layer figure because it is 0 on some seeds",
    ),
    "ops_failed_frac": PerLayer(
        "frac", "lower", "wall_ops_per_s", ALL,
        "operations that raised an untyped error or failed the output "
        "check, over those attempted; 0 today",
    ),
    "hw.dma.mb_per_gemm": PerLayer(
        "MB", "lower", "sim_gflops", ("gemm_grid",),
        "DMA bytes moved per DES call",
    ),
    "hw.ddr_mean_concurrency": PerLayer(
        "count", "lower", "sim_gflops", ("gemm_grid",),
        "mean DDR port concurrency per DES call",
    ),
    "code.src_loc": PerLayer(
        "count", "lower", "none", (),
        "lines of src/repro/**/*.py; informational, gates nothing",
    ),
    "code.serve_config_fields": PerLayer(
        "count", "lower", "none", (),
        "ServeConfig fields; informational, gates nothing",
    ),
}
