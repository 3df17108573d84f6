"""The benchmark's three workloads, driven through public repro calls.

Each workload makes its inputs from the benchmark seed, runs one *pass*
of its fixed stream with only the program's own calls inside the timed
window, checks every output against NumPy outside it, and returns the
pass's simulated figures, which must be identical on every pass.

``repro`` is imported inside the functions, never at module level, so
that a set-up probe can time the import itself.
"""

from __future__ import annotations

import gc
import importlib
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

import calib
import stats

SESSIONS = 8
SESSION_REQUESTS = 150
#: session i of the reference stream is ``make_requests(..., seed=42+i)``
BASE_SEED = 42

#: the paper's three irregular types as (M, K), and the N sweep
GRID_TYPES = ((8192, 512), (64, 16384), (2048, 2048))
GRID_NS = (16, 32, 64)
#: the dimensions a non-zero seed nudges per type: (M?, K?)
_GRID_LONG = ((True, False), (False, True), (True, True))

#: entry tolerance in units of float32 epsilon x sqrt(K) x (|C0| + |A||B|)
F32_SLACK = 8.0


def within_f32(c, c0, a, b) -> bool:
    """Whether ``c`` equals ``c0 + a @ b`` up to float32 rounding.

    The reference is computed in float64; each entry may differ by
    ``F32_SLACK`` float32 epsilons times sqrt(K) times the magnitude of
    the terms it sums.  For K <= 64 that exceeds the worst rounding of
    any summation order; above it, rounding errors of a correct product
    grow like sqrt(K) and stay ten times inside (the worst seen on these
    workloads is 0.85), while a lost, doubled or misplaced block does
    not fit.  NaN fails.
    """
    ref = np.asarray(c0, np.float64) + (
        np.asarray(a, np.float64) @ np.asarray(b, np.float64)
    )
    # the bound needs no more precision than float32 gives it
    scale = np.abs(c0) + np.abs(a) @ np.abs(b)
    tol = F32_SLACK * np.finfo(np.float32).eps * math.sqrt(a.shape[1]) * scale
    return bool(np.all(np.abs(np.asarray(c, np.float64) - ref) <= tol))


@dataclass
class Pass:
    """One pass of a workload's fixed stream."""

    wall_s: float
    ops: int
    failed: int = 0
    #: deterministic simulated figures; equal on every pass of a seed
    sim: dict = field(default_factory=dict)
    #: calibration loops timed beside the pass's work, and their seconds
    cal_rounds: int = 0
    cal_s: float = 0.0

    def calibrate(self) -> None:
        self.cal_s += calib.loop_s()
        self.cal_rounds += 1

    @property
    def ops_per_s(self) -> float:
        """Operations per wall-second, rescaled to nominal machine speed."""
        return self.ops / self.wall_s * calib.slowdown(
            self.cal_s, self.cal_rounds
        )


def _typed(error: str | None) -> bool:
    """Whether a record's error names a ``repro.errors`` class."""
    if not error:
        return False
    errors = importlib.import_module("repro.errors")
    cls = getattr(errors, error.split(":", 1)[0], None)
    return isinstance(cls, type) and issubclass(cls, errors.ReproError)


def _session_failures(report, requests, c0s) -> int:
    """Requests of one session that broke a serve contract."""
    request_mod = importlib.import_module("repro.serve.request")
    offered = len(requests)
    if (
        len(report.records) != offered
        or report.completed + report.shed + report.failed != offered
    ):
        return offered  # conservation broken: nothing is trustworthy
    by_id = {r.req_id: (r, c0) for r, c0 in zip(requests, c0s)}
    bad = 0
    for rec in report.records:
        req, c0 = by_id[rec.req_id]
        if rec.status == request_mod.COMPLETED:
            ok = within_f32(req.c, c0, req.a, req.b)
        elif rec.status == request_mod.SHED:
            ok = bool(rec.error) and rec.shed_reason is not None
        else:
            ok = rec.status == request_mod.FAILED and _typed(rec.error)
        bad += not ok
    return bad


def _batch_shape(batch) -> tuple[int, int, int]:
    head, _dtype, _tag = batch.bucket.split("/")
    _stacked, n, k = head.split("x")
    return batch.stacked_m, int(n), int(k)


class ServeStream:
    """8 sessions x 150 requests through ``serve`` or ``gateway_replay``."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        #: stacked batch shapes of the last pass, with their batch counts
        self.batch_shapes: Counter = Counter()

    def session(self, i: int):
        """Session ``i``: the reference stream's requests -- shapes, operands
        and shared B -- at arrival times the seed draws anew.

        Keeping the reference mix fixed keeps a pass's work the same from
        seed to seed, so host figures move with the program, not with how
        many large requests a seed happened to draw; the new arrivals
        still change batching, queueing and every simulated figure.
        """
        loadgen = importlib.import_module("repro.serve.loadgen")
        mix, rate = (
            ("overload", 120_000) if self.name == "overload"
            else ("mixed", 200_000)
        )
        requests = loadgen.make_requests(
            mix, rate_rps=rate, n_requests=SESSION_REQUESTS,
            seed=BASE_SEED + i,
        )
        if not self.seed:
            return requests
        slo = {c.name: c.slo_s for c in loadgen.get_mix(mix)}
        rng = np.random.default_rng([self.seed, i, 0xA77])
        arrivals = np.cumsum(rng.exponential(1.0 / rate, len(requests)))
        return [
            replace(
                req,
                arrival_s=float(t),
                deadline_s=(
                    None if slo[req.klass] is None
                    else float(t) + slo[req.klass]
                ),
            )
            for req, t in zip(requests, arrivals)
        ]

    def config(self):
        server = importlib.import_module("repro.serve.server")
        if self.name == "overload":
            return server.ServeConfig(policy="edf", queue_cap=256)
        return server.ServeConfig(
            policy="least_loaded",
            queue_cap=256,
            faults=importlib.import_module("repro.faults.plan").FaultPlan(
                seed=7, bitflip_rate=1.0, max_kernel_retries=0
            ),
            cluster_fault_scale=(1.0, 0.0, 0.0, 0.0),
            max_redispatch=1,
            degrade=importlib.import_module("repro.serve.degrade")
            .DegradePolicy(),
            replicate_b="adaptive",
        )

    def drive(self):
        if self.name == "overload":
            return importlib.import_module("repro.serve.server").serve
        return importlib.import_module("repro.serve.gateway").gateway_replay

    def setup(self) -> float:
        """Seconds from a built config to a warmed engine for session 0."""
        server = importlib.import_module("repro.serve.server")
        machine = importlib.import_module("repro.hw.config").default_machine()
        requests = sorted(
            self.session(0), key=lambda r: (r.arrival_s, r.req_id)
        )
        config = self.config()
        start = time.perf_counter()
        engine = server.ServeEngine(config, machine)
        server.warm_engine(engine, requests)
        return time.perf_counter() - start

    def _serve_session(self, i: int, drive, config, out: Pass):
        """Serve session ``i`` into ``out``; returns its report and the
        flops of each request, or None.  The session's operands die with
        this call, so a pass never holds more than one session."""
        requests = self.session(i)
        c0s = [r.c.copy() for r in requests]
        gc.collect()
        out.calibrate()
        start = time.perf_counter()
        try:
            with importlib.import_module("repro.obs").collecting():
                report = drive(requests, config)
        except Exception:  # an untyped escape fails the whole session
            traceback.print_exc(file=sys.stderr)
            report = None
        out.wall_s += time.perf_counter() - start
        out.ops += len(requests)
        if report is None:
            out.failed += len(requests)
            return None
        out.failed += _session_failures(report, requests, c0s)
        return report, {r.req_id: r.shape.flops for r in requests}

    def run_pass(self) -> Pass:
        drive, config = self.drive(), self.config()
        out = Pass(wall_s=0.0, ops=0)
        served = [self._serve_session(i, drive, config, out)
                  for i in range(SESSIONS)]
        out.sim = self._sim([s for s in served if s is not None])
        return out

    def _sim(self, served) -> dict:
        request_mod = importlib.import_module("repro.serve.request")
        critical_path = importlib.import_module(
            "repro.analysis.critical_path"
        )
        n_clusters = importlib.import_module(
            "repro.hw.config"
        ).default_machine().n_clusters
        reports = [report for report, _flops in served]
        makespan = sum(r.makespan_s for r in reports)
        offered = sum(len(r.records) for r in reports)
        latencies, flops, good, paths = [], 0, 0, []
        busy = n_batches = n_items = hits = 0
        self.batch_shapes = Counter()
        for report, flops_of in served:
            for rec in report.records:
                if rec.status != request_mod.COMPLETED:
                    continue
                latencies.append(rec.latency_s)
                flops += flops_of[rec.req_id]
                good += rec.deadline_met is not False
            paths += critical_path.critical_path(
                report.records, report.batches
            ).paths
            for b in report.batches:
                busy += b.finish_s - b.start_s
                n_items += b.n_items
                hits += bool(getattr(b, "b_resident", False))
                self.batch_shapes[_batch_shape(b)] += 1
            n_batches += len(report.batches)
        if not stats.tail_ok(len(latencies), 0.99):
            print(f"{self.name}: p99 latency rests on fewer than "
                  f"{stats.MIN_BEYOND} samples beyond it", file=sys.stderr)
        sim = {
            "goodput_rps": good / makespan,
            "latency_p50_ms": stats.quantile(latencies, 0.50) * 1e3,
            "latency_p99_ms": stats.quantile(latencies, 0.99) * 1e3,
            "sim_gflops": flops / busy / 1e9,
            "slo_miss_frac": (
                sum(r.deadline_missed for r in reports) / offered
            ),
            "serve.batcher.mean_batch": n_items / n_batches,
            "serve.scheduler.utilization": busy / (n_clusters * makespan),
            "serve.verify.repaired": sum(r.verify_repaired for r in reports),
            "faults.redispatches": sum(r.redispatches for r in reports),
            "serve.degrade.shed": sum(r.shed for r in reports),
            "serve.degrade.quarantines": sum(
                r.degrade.quarantines for r in reports if r.degrade
            ),
            "serve.placement.promotions": sum(
                r.placement.promotions for r in reports if r.placement
            ),
            "serve.placement.resident_frac": hits / n_batches,
        }
        for seg, value in stats.tail_segments(
            [(p.latency_s, p.segments) for p in paths], 0.99
        ).items():
            sim[f"sim.p99.{seg}_ms"] = value * 1e3
        return sim

    def model_figures(self) -> dict:
        """DES vs analytic over the distinct stacked batch shapes of one
        pass, and TGEMM over ftIMM DES time summed over its batches;
        untimed, once per run."""
        ftimm = importlib.import_module("repro.core.ftimm")
        errors, des_s, tgemm_s = [], 0.0, 0.0
        for (m, n, k), count in sorted(self.batch_shapes.items()):
            des = ftimm.ftimm_gemm(m, n, k, timing="des").seconds
            analytic = ftimm.ftimm_gemm(m, n, k, timing="analytic").seconds
            errors.append(abs(analytic - des) / des)
            des_s += count * des
            tgemm_s += count * ftimm.tgemm_gemm(m, n, k, timing="des").seconds
        return {
            "sim_speedup_vs_tgemm": tgemm_s / des_s,
            "model_err_p95": stats.quantile(errors, 0.95),
        }


def grid_shapes(seed: int) -> list[tuple[int, int, int]]:
    """The irregular grid as (M, N, K); seed 0 is the paper's.

    Any other seed nudges each type's long dimensions by at most 4/512
    (rounded to multiples of 16): a seed unused while a change was
    written gives shapes it was not tuned on, and the figures move by
    about as much as the shapes do.
    """
    rng = np.random.default_rng([seed, 0x6772])
    shapes = []
    for (m, k), (long_m, long_k) in zip(GRID_TYPES, _GRID_LONG):
        if seed:
            f_m, f_k = (1 + int(j) / 512 for j in rng.integers(-4, 5, size=2))
            m = 16 * round(m * f_m / 16) if long_m else m
            k = 16 * round(k * f_k / 16) if long_k else k
        shapes += [(m, n, k) for n in GRID_NS]
    return shapes


class GemmGrid:
    """ftIMM DES, TGEMM DES and ftIMM analytic at every grid point."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.shapes = grid_shapes(seed)
        self._operands = None
        #: per point of the last pass: ftIMM DES, ftIMM analytic and TGEMM
        #: DES seconds
        self.timings: list[tuple[float, float, float]] = []

    def setup(self) -> float:
        """Seconds of first-touch tuning and kernel generation."""
        ftimm = importlib.import_module("repro.core.ftimm")
        start = time.perf_counter()
        for m, n, k in self.shapes:
            ftimm.ftimm_gemm(m, n, k, timing="analytic")
            ftimm.tgemm_gemm(m, n, k, timing="analytic")
        return time.perf_counter() - start

    def operands(self):
        """Seeded (A, B, C0) per point, drawn once per run; A is shared by
        the points of one type."""
        if self._operands is None:
            rng = np.random.default_rng([self.seed, 0x4D4D])
            a_of: dict[tuple[int, int], np.ndarray] = {}
            self._operands = []
            for m, n, k in self.shapes:
                if (m, k) not in a_of:
                    a_of[m, k] = rng.standard_normal((m, k), np.float32)
                b = rng.standard_normal((k, n), np.float32)
                c0 = rng.standard_normal((m, n), np.float32)
                self._operands.append((a_of[m, k], b, c0))
        return self._operands

    def run_pass(self) -> Pass:
        ftimm = importlib.import_module("repro.core.ftimm")
        out = Pass(wall_s=0.0, ops=0)
        self.timings, gflops = [], []
        for (m, n, k), (a, b, c0) in zip(self.shapes, self.operands()):
            c = c0.copy()
            gc.collect()
            out.calibrate()
            start = time.perf_counter()
            try:
                fast = ftimm.ftimm_gemm(m, n, k, a=a, b=b, c=c, timing="des")
                base = ftimm.tgemm_gemm(m, n, k, timing="des")
                model = ftimm.ftimm_gemm(m, n, k, timing="analytic")
            except Exception:  # an untyped escape fails the point
                traceback.print_exc(file=sys.stderr)
                fast = None
            out.wall_s += time.perf_counter() - start
            out.ops += 1
            if fast is None or not within_f32(c, c0, a, b):
                out.failed += 1
                continue
            self.timings.append((fast.seconds, model.seconds, base.seconds))
            gflops.append(fast.gflops)
        if not self.timings:
            return out
        des_s = [des for des, _model, _base in self.timings]
        out.sim = {
            "goodput_rps": len(des_s) / sum(des_s),
            "latency_p50_ms": stats.quantile(des_s, 0.50) * 1e3,
            "latency_p99_ms": stats.quantile(des_s, 0.99) * 1e3,
            "sim_gflops": stats.geomean(gflops),
            "sim_speedup_vs_tgemm": stats.geomean(
                base / des for des, _model, base in self.timings
            ),
        }
        return out

    def model_figures(self) -> dict:
        """Analytic vs DES for ftIMM and TGEMM at every point of the last
        pass (TGEMM's analytic twin is timed here, untimed, once per run)."""
        ftimm = importlib.import_module("repro.core.ftimm")
        errors = []
        for (m, n, k), (des, model, base) in zip(self.shapes, self.timings):
            base_model = ftimm.tgemm_gemm(m, n, k, timing="analytic").seconds
            errors += [abs(model - des) / des, abs(base_model - base) / base]
        return {"model_err_p95": stats.quantile(errors, 0.95)}


def make(name: str, seed: int):
    if name == "gemm_grid":
        return GemmGrid(name, seed)
    return ServeStream(name, seed)
