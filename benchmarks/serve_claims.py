"""CI serve claims gate: the claims the serve stack stands on.

Runs five claim groups in one process -- serve, degrade, gateway,
placement and trace -- prints one result line per group, and fails
(exit 1) unless every check in every group holds.  Each group is a plain
function below whose docstring states its claims; its fixed inputs (mix,
offered load, request count, seed, queue cap, policy, fault plan) are
spelled out at the call site.

Every run is deterministic (simulated time, fixed seeds), so a failure
is a regression, not noise.  The one wall-clock check, the trace
group's overhead budget, is generous by construction.

Usage::

    PYTHONPATH=src python benchmarks/serve_claims.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis import from_spans
from repro.core.ftimm import ftimm_gemm
from repro.faults.plan import FaultPlan
from repro.hw.config import default_machine
from repro.obs import load_spans, tracing, validate_chrome_trace
from repro.serve import (
    DegradePolicy,
    ServeConfig,
    chaos_serve,
    gateway_replay,
    make_requests,
    monitor,
    serve,
    sweep,
)
from repro.serve.degrade import silent_corruptions
from repro.serve.placement import REPLICA_BUDGET_BYTES

#: cluster 0 is sick: full fault rates there, healthy elsewhere
SICK_FIRST = (1.0,) + (0.0,) * (default_machine().n_clusters - 1)
#: async goodput tolerance against the replay (gateway group)
GOODPUT_TOL = 0.02
#: wall-clock budget for tracing overhead, per traced run (trace group)
OVERHEAD_BUDGET_S = 2.0
#: absolute slack for span-sum reconstruction, seconds (trace group)
ROUNDING_S = 1e-9
#: the perf-smoke reference shape (see benchmarks/perf_smoke.py)
PERF_SHAPE = (512, 32, 512)
PERF_RECORD_KEYS = {
    "schema", "ts", "shape", "impl", "strategy", "cores",
    "seconds", "gflops", "efficiency", "bound", "epochs",
    "profile", "metrics",
}
TYPED = {"completed", "shed", "failed"}

failures: list[str] = []


def check(ok: bool, message: str) -> bool:
    """Record ``message`` as a failure unless ``ok``; return ``ok``."""
    if not ok:
        failures.append(message)
    return ok


def stream(mix: str, rate: float, n: int, seed: int = 42):
    """A fresh seeded request stream (serve writes C into requests)."""
    return make_requests(mix, rate_rps=rate, n_requests=n, seed=seed)


def same_run(a, b) -> bool:
    """Records, batch rows and makespan bit-identical."""
    return (
        a.records == b.records
        and a.batches == b.batches
        and a.makespan_s == b.makespan_s
    )


def audit_chaos(name: str, report, served, pristine, n: int) -> None:
    """The serve contract on one faulted run.

    ``served`` are the requests the run wrote its results into,
    ``pristine`` their A, B and C0 as snapshotted before the run.
    Conservation (offered = completed + shed + failed), every loss
    typed (a known status, and an error on every non-completed record),
    zero silent corruptions (every completed C equals a fresh
    fault-free standalone ``ftimm_gemm`` of its pristine operands), and
    the leg is not vacuous (the plan caused a redispatch or a failure).
    """
    accounted = report.completed + report.shed + report.failed
    untyped = [
        r.req_id for r in report.records
        if r.status not in TYPED or (r.status != "completed" and not r.error)
    ]
    corrupted = silent_corruptions(report, served, pristine)
    print(
        f"  {name}: goodput={report.goodput_rps:.0f} rps "
        f"completed={report.completed} shed={report.shed} "
        f"failed={report.failed} redispatches={report.redispatches} "
        f"untyped={len(untyped)} silent={len(corrupted)}"
    )
    check(accounted == n, f"{name}: conservation violated: completed + "
          f"shed + failed = {accounted}, offered {n}")
    check(not untyped, f"{name}: untyped losses {untyped} -- every loss "
          "must be a typed shed or failure")
    check(not corrupted, f"{name}: {len(corrupted)} completed result(s) "
          f"differ from the standalone answer: {corrupted}")
    check(report.redispatches > 0 or report.failed > 0,
          f"{name}: chaos leg is vacuous: the fault plan injected no "
          "faulted attempts (no redispatches, no failures)")


def serve_group() -> None:
    """Serve: the two claims the serve subsystem stands on.

    1. **EDF meets strictly more deadlines than FIFO** on the overload
       mix.  If they tie, either the mix no longer overloads the
       clusters or the policy plumbing regressed to arrival order.
       Every policy's run conserves its requests.
    2. **Batching beats one-call-per-request at saturation.**  The
       sweep's highest load must show strictly higher goodput with
       shape-bucketed batching than with ``max_batch=1``; otherwise the
       batcher is pure overhead.
    """
    met = {}
    for policy in ("fifo", "least_loaded", "edf"):
        report = serve(stream("overload", 120_000.0, 150),
                       ServeConfig(policy=policy, queue_cap=256))
        met[policy] = report.deadline_met
        check(report.completed + report.shed + report.failed == 150,
              f"serve {policy}: conservation violated")
    print("  deadlines met @ 120000 rps (n=150): "
          + "  ".join(f"{p}={m}" for p, m in met.items()))
    check(met["edf"] > met["fifo"], "EDF must meet strictly more deadlines "
          f"than FIFO, got edf={met['edf']} vs fifo={met['fifo']}")

    result = sweep(
        "overload", [60_000.0, 240_000.0], n_requests=150, seed=42,
        config=ServeConfig(policy="edf", queue_cap=256), compare_naive=True,
    )
    print(f"  saturation goodput @ 240000 rps: "
          f"batched={result.saturated_goodput_rps:.0f} rps vs "
          f"naive={result.naive_saturated_goodput_rps:.0f} rps")
    check(result.batching_wins_at_saturation, "batched goodput must "
          "strictly beat the one-call-per-request baseline at saturation")


def degrade_group() -> None:
    """Degrade: resilience must pay, and never corrupt.

    The overload mix is served against one sick cluster (every attempt
    on it bit-flips) twice: by the policy-free FIFO baseline (retries
    stay on the sick cluster and fail) and with the degradation policy
    on (faults re-route, the breaker quarantines the sick cluster).

    1. **Quarantine + priority shedding strictly beats naive FIFO**
       goodput, and the sick cluster is quarantined at least once.
    2. **Both runs pass** :func:`audit_chaos`.
    3. **Both runs are deterministic under the seed:**
       :func:`repro.serve.chaos_serve` replays each and compares
       records, batches, makespan and served C bits.
    """
    naive = ServeConfig(
        policy="fifo", queue_cap=256,
        faults=FaultPlan(seed=7, bitflip_rate=1.0, max_kernel_retries=0),
        cluster_fault_scale=SICK_FIRST, max_redispatch=1,
    )
    reports = {}
    for name, config in (
        ("naive", naive),
        ("degraded", dataclasses.replace(naive, degrade=DegradePolicy())),
    ):
        pristine = stream("overload", 120_000.0, 150)
        chaos = chaos_serve(pristine, config)  # serves clones
        audit_chaos(f"degrade {name}", chaos.report, chaos.served,
                    pristine, 150)
        check(chaos.deterministic is True,
              f"degrade {name}: chaos run is not deterministic")
        reports[name] = chaos.report

    goodput = {name: r.goodput_rps for name, r in reports.items()}
    d = reports["degraded"].degrade
    print(f"  degraded run health: {d.faults} faulted attempt(s), "
          f"{d.quarantines} quarantine(s), {d.probes} probe(s)")
    check(d.quarantines >= 1, "the sick cluster was never quarantined")
    check(goodput["degraded"] > goodput["naive"],
          "quarantine + priority shedding must strictly beat naive FIFO "
          f"under chaos, got {goodput['degraded']:.0f} vs "
          f"{goodput['naive']:.0f} rps")


def gateway_group() -> None:
    """Gateway: the async front-end's determinism contract.

    1. **Bit-identity.**  The seeded asyncio gateway must produce
       records, batch rows and makespan bit-identical to the pre-drawn
       replay at the same offered load: the virtual-clock bridge may
       never perturb simulated time.
    2. **Goodput parity** within ``GOODPUT_TOL`` of the replay.
       Bit-identity implies equality; the tolerance keeps the gate
       meaningful if the identity audit is ever relaxed.
    3. **Chaos:** one sick cluster under aggressive bit-flips with
       degrade on passes :func:`audit_chaos`.
    """
    config = ServeConfig(policy="edf", queue_cap=64)
    live = gateway_replay(stream("overload", 120_000.0, 120), config)
    replay = serve(stream("overload", 120_000.0, 120), config)
    identical = same_run(live, replay)
    print(f"  gateway vs replay @ 120000 rps (n=120): live goodput="
          f"{live.goodput_rps:.0f} rps, replay goodput="
          f"{replay.goodput_rps:.0f} rps, bit-identical={identical}")
    check(identical, "async gateway records must be bit-identical to the "
          "pre-drawn replay at the same offered load")
    if replay.goodput_rps > 0:
        rel = abs(live.goodput_rps - replay.goodput_rps) / replay.goodput_rps
        check(rel <= GOODPUT_TOL, f"async goodput must be within "
              f"{GOODPUT_TOL:.0%} of the replay, got {rel:.1%} off")

    served = stream("overload", 120_000.0, 120)
    pristine = copy.deepcopy(served)
    chaotic = gateway_replay(served, ServeConfig(
        policy="edf", queue_cap=64, degrade=DegradePolicy(),
        faults=FaultPlan(seed=42, bitflip_rate=1.0, max_kernel_retries=0),
        cluster_fault_scale=SICK_FIRST,
    ))
    audit_chaos("gateway chaos", chaotic, served, pristine, 120)


def placement_group() -> None:
    """Placement: replicated-B placement earns its keep, safely.

    Drives the overload mix's hot shared-B buckets at a saturating
    300k rps, past the knee where per-dispatch B staging serializes.

    1. **Replication wins at saturation:** ``replicate_b="adaptive"``
       strictly beats ``least_loaded`` without replication on goodput,
       and at least one batch runs on a replica holder.
    2. **Off is bit-identical:** ``replicate_b="off"`` gives the default
       config's records, batch rows and makespan, and no placement
       report.
    3. **Gateway parity with replication on:** placement decisions
       happen at batch close, inside engine event processing, which
       both paths drive in the same ``offer()`` order.
    4. **Chaos:** one sick cluster with degrade and replication on
       passes :func:`audit_chaos`, and replica residency never exceeds
       the per-cluster budget.
    """
    baseline = serve(stream("overload", 300_000.0, 200),
                     ServeConfig(policy="least_loaded", queue_cap=256))
    adaptive_config = ServeConfig(policy="least_loaded", queue_cap=256,
                                  replicate_b="adaptive")
    adaptive = serve(stream("overload", 300_000.0, 200), adaptive_config)
    placement = adaptive.placement
    print(f"  saturation @ 300000 rps (n=200): least_loaded goodput="
          f"{baseline.goodput_rps:.0f} rps, +adaptive replication="
          f"{adaptive.goodput_rps:.0f} rps ({placement.hits} staging "
          f"skips, {placement.promotions} promotion(s))")
    check(adaptive.goodput_rps > baseline.goodput_rps,
          "adaptive replication must strictly beat least_loaded without "
          f"replication at saturation: {adaptive.goodput_rps:.0f} vs "
          f"{baseline.goodput_rps:.0f} rps")
    check(placement.hits > 0, "placement leg is vacuous: no batch ever "
          "ran on a replica holder")

    off = serve(stream("overload", 300_000.0, 200), ServeConfig(
        policy="least_loaded", queue_cap=256, replicate_b="off",
    ))
    off_identical = same_run(off, baseline) and off.placement is None
    print(f"  replicate_b=off vs default config: "
          f"bit-identical={off_identical}")
    check(off_identical, "replicate_b='off' must be record-bit-identical "
          "to the pre-placement serve")

    live = gateway_replay(stream("overload", 300_000.0, 200),
                          adaptive_config)
    gw_identical = (same_run(live, adaptive)
                    and live.placement.events == adaptive.placement.events)
    print(f"  gateway vs replay with adaptive replication: "
          f"bit-identical={gw_identical}")
    check(gw_identical, "gateway records and placement timeline must be "
          "bit-identical to the pre-drawn replay with replication on")

    served = stream("overload", 300_000.0, 200)
    pristine = copy.deepcopy(served)
    chaotic = serve(served, dataclasses.replace(
        adaptive_config, degrade=DegradePolicy(),
        faults=FaultPlan(seed=42, bitflip_rate=1.0, max_kernel_retries=0),
        cluster_fault_scale=SICK_FIRST,
    ))
    audit_chaos("placement chaos", chaotic, served, pristine, 200)
    over_budget = [peak for peak in chaotic.placement.peak_bytes
                   if peak > REPLICA_BUDGET_BYTES]
    check(not over_budget, "replica residency exceeded the per-cluster "
          f"budget under chaos: {over_budget}")


def trace_group() -> None:
    """Trace: the claims the observability layer stands on (seed 0).

    1. **The exported trace is schema-valid and self-consistent:** it
       passes :func:`repro.obs.validate_chrome_trace`; for every
       completed request the queue, batch-wait and compute spans
       reconstruct the record's latency decomposition within
       ``ROUNDING_S``; and the critical path covers at least 95% of
       every request's latency.
    2. **Tracing is observation-only:** the traced serve run is
       bit-identical to the untraced one, and a traced DES GEMM models
       the same seconds.
    3. **SLO alerts are load-selective:** the saturated overload mix
       fires at least one burn-rate alert; the light transformer mix
       fires none.
    4. **Tracing overhead stays inside ``OVERHEAD_BUDGET_S``** of wall
       time, on the serve run and on the reference shape's DES run.
       Both are timed after an untimed warm run, so the budget is not
       spent (or hidden) by cold lowering, plan and intern caches.
    5. **``repro perf --json`` emits the stable schema:** one JSON
       object carrying the run-log record's required fields.
    """
    def run(mix, rate):
        return serve(stream(mix, rate, 120, seed=0), ServeConfig())

    run("overload", 480_000.0)  # warm the caches
    t0 = time.perf_counter()
    baseline = run("overload", 480_000.0)
    untraced_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    with tracing() as tracer:
        traced = run("overload", 480_000.0)
    traced_s = time.perf_counter() - t0
    check(same_run(traced, baseline),
          "traced serve run diverged from the untraced run")

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.json"
        tracer.save(trace_path)
        try:
            validate_chrome_trace(json.loads(trace_path.read_text()))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            check(False, f"exported trace failed validation: {exc}")
        spans = load_spans(trace_path)
    by_req: dict[int, dict[str, float]] = {}
    for s in spans:
        rid = s.args.get("req_id")
        if rid is not None and s.category in ("queue", "batch-wait",
                                              "compute"):
            by_req.setdefault(int(rid), {})[s.category] = s.duration_s
    checked = 0
    for rec in traced.records:
        if rec.status != "completed":
            continue
        segs = by_req.get(rec.req_id)
        if not check(segs is not None and len(segs) == 3,
                     f"request {rec.req_id}: missing segment spans"):
            continue
        total = sum(segs.values())
        check(abs(total - rec.latency_s) <= ROUNDING_S,
              f"request {rec.req_id}: span sum {total:.3e}s != recorded "
              f"latency {rec.latency_s:.3e}s")
        check(abs(segs["queue"] - rec.queue_s) <= ROUNDING_S
              and abs(segs["batch-wait"] - rec.batch_s) <= ROUNDING_S
              and abs(segs["compute"] - rec.compute_s) <= ROUNDING_S,
              f"request {rec.req_id}: per-segment spans disagree with "
              "the serve record")
        checked += 1
    cp = from_spans(spans)
    print(f"  trace: {len(spans)} spans, {checked} completed requests "
          f"reconstructed; critical path dominant={cp.tail_dominant} "
          f"min_coverage={cp.min_coverage * 100:.2f}%")
    check(checked > 0, "no completed requests to check -- mix regressed?")
    check(cp.min_coverage >= 0.95,
          f"critical-path coverage {cp.min_coverage:.3f} below 0.95")

    slo_hot = monitor(traced.records)
    slo_light = monitor(run("transformer", 30_000.0).records)
    print(f"  slo: overload@480000 {len(slo_hot.alerts)} alert(s), "
          f"transformer@30000 {len(slo_light.alerts)} alert(s)")
    check(bool(slo_hot.alerts),
          "overload mix at saturation fired no SLO alert")
    check(not slo_light.alerts, "light transformer mix fired an SLO alert")

    overhead = traced_s - untraced_s
    print(f"  serve tracing overhead: {overhead * 1e3:.1f} ms (untraced "
          f"{untraced_s * 1e3:.1f} ms, traced {traced_s * 1e3:.1f} ms)")
    check(overhead <= OVERHEAD_BUDGET_S, f"serve tracing overhead "
          f"{overhead:.2f}s over the {OVERHEAD_BUDGET_S:.1f}s budget")
    ftimm_gemm(*PERF_SHAPE, timing="des")  # warm plan + kernel caches
    t0 = time.perf_counter()
    plain = ftimm_gemm(*PERF_SHAPE, timing="des")
    gemm_untraced_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    with tracing():
        traced_gemm = ftimm_gemm(*PERF_SHAPE, timing="des")
    gemm_overhead = time.perf_counter() - t0 - gemm_untraced_s
    print(f"  gemm tracing overhead (512x32x512): "
          f"{gemm_overhead * 1e3:.1f} ms")
    check(traced_gemm.seconds == plain.seconds,
          "traced GEMM modeled time diverged from untraced")
    check(gemm_overhead <= OVERHEAD_BUDGET_S, f"gemm tracing overhead "
          f"{gemm_overhead:.2f}s over the {OVERHEAD_BUDGET_S:.1f}s budget")

    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "perf", "--shape", "512x32x256",
             "--runlog", str(Path(tmp) / "runs.jsonl"), "--json"],
            capture_output=True, text=True, timeout=600,
        )
    if not check(proc.returncode == 0, f"repro perf --json exited "
                 f"{proc.returncode}: {proc.stderr.strip()[:200]}"):
        return
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        check(False, "repro perf --json printed non-JSON output")
        return
    missing = PERF_RECORD_KEYS - record.keys()
    if check(not missing,
             f"perf --json record missing keys: {sorted(missing)}"):
        print(f"  perf --json: schema ok ({record['shape']}, "
              f"{record['gflops']:.1f} GFLOPS)")


def main() -> int:
    for group in (serve_group, degrade_group, gateway_group,
                  placement_group, trace_group):
        before = len(failures)
        t0 = time.perf_counter()
        group()
        verdict = "ok" if len(failures) == before else "FAIL"
        print(f"{group.__name__[:-6]}: {verdict} "
              f"({time.perf_counter() - t0:.1f} s)")
    for message in failures:
        print(f"FAIL: {message}")
    if failures:
        return 1
    print("serve claims: all hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
