"""Command-line interface.

::

    python -m repro gemm 20480x32x20480 [--impl ftimm|tgemm|both]
                                        [--cores N] [--timing MODE]
                                        [--verify] [--kernel-exec MODE]
                                        [--trace out.json] [--perf]
    python -m repro perf --shape MxNxK [--runlog runs.jsonl] [--compare]
                         [--json]
    python -m repro autotune MxNxK [--no-validate] [--validate-top N]
                                   [--exhaustive]
    python -m repro kernel M N K [--table] [--asm] [--tgemm]
    python -m repro classify MxNxK
    python -m repro chaos [--seeds N] [--impl ftimm|tgemm|both]
    python -m repro serve [--mix NAME] [--policy P] [--loads R1,R2,...]
                          [--compare-naive] [--latency-table]
                          [--trace out.json]
    python -m repro trace runs.jsonl|trace.json [--quantile Q]
    python -m repro experiment tables|fig3|...|fig7|fp64|...|bandwidth|all
    python -m repro machine

Everything the CLI prints comes from the same public API the examples
use; the CLI exists so the reproduction can be poked at without writing
Python.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.tables import format_table
from .baselines.cpu_openblas import openblas_sgemm
from .baselines.roofline import roofline
from .core.ftimm import ftimm_gemm, tgemm_gemm
from .core.shapes import GemmShape
from .errors import ReproError
from .hw.config import default_machine
from .kernels.registry import registry_for
from .workloads.generators import random_operands, reference_result


def _parse_shape(text: str) -> tuple[int, int, int]:
    parts = text.lower().replace("*", "x").split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"shape must look like MxNxK, got {text!r}"
        )
    try:
        m, n, k = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return m, n, k


def _unit_fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return value


def _trace_summary(spans) -> str:
    """Row-utilization table of a captured trace."""
    from .obs import track_busy

    rows = [
        [track, n, f"{busy * 1e6:.1f}", f"{100 * util:.1f}%"]
        for track, (n, busy, util) in track_busy(spans).items()
    ]
    return format_table(["row", "spans", "busy (us)", "util"], rows)


def _cmd_gemm(args: argparse.Namespace) -> int:
    m, n, k = args.shape
    shape = GemmShape(m, n, k)
    machine = default_machine()
    base = reference = None
    if args.verify:
        base = random_operands(shape, seed=0)
        if args.dtype == "f64":
            base = tuple(arr.astype("float64") for arr in base)
        reference = reference_result(*base)

    rows = []
    impls = ["ftimm", "tgemm"] if args.impl == "both" else [args.impl]
    if args.dtype == "f64":
        impls = [i for i in impls if i == "ftimm"]  # no FP64 baseline
    for impl in impls:
        fn = ftimm_gemm if impl == "ftimm" else tgemm_gemm
        kwargs = dict(
            cores=args.cores, timing=args.timing,
            kernel_exec=args.kernel_exec,
        )
        if impl == "ftimm" and args.dtype != "f32":
            kwargs["dtype"] = args.dtype
        if args.verify:
            a, b, c0 = base
            c = c0.copy()  # each impl accumulates into its own C
            kwargs.update(a=a, b=b, c=c)
        if impl == "ftimm" and args.force_strategy:
            kwargs["force_strategy"] = args.force_strategy
        result = fn(m, n, k, **kwargs)
        rows.append(
            [
                impl,
                result.strategy,
                result.timing_mode,
                f"{result.seconds * 1e6:.1f}" if result.timing else "-",
                f"{result.gflops:.1f}",
                f"{100 * result.efficiency:.1f}%",
            ]
        )
        if args.verify:
            import numpy as np

            err = float(np.abs(kwargs["c"] - reference).max())
            print(f"verify [{impl}]: max |C - reference| = {err:.3e}")
        if (args.trace or args.plan or args.perf) and impl == "ftimm":
            from .core.ftimm import lowered_program
            from .core.tuner import tune

            cluster = machine.cluster
            if args.cores is not None:
                cluster = cluster.with_cores(args.cores)
            decision = tune(
                shape, cluster, dtype=args.dtype,
                force_strategy=args.force_strategy,
            )
            lowered = lowered_program(shape, cluster, decision)
            if args.plan:
                print(lowered.describe())
            if args.trace or args.perf:
                from contextlib import nullcontext

                from .executor.timed import run_timed
                from .obs import ascii_timeline, collecting, tracing

                with (tracing() if args.trace else nullcontext()) as tracer, \
                        (collecting() if args.perf else nullcontext()):
                    timed = run_timed(lowered)
                if tracer is not None:
                    path = tracer.save(args.trace)
                    print(f"trace: {tracer.n_spans} spans -> {path}")
                    des_spans = [s for s in tracer.spans
                                 if s.category in ("kernel", "dma", "sync")]
                    print(ascii_timeline(des_spans))
                    print(_trace_summary(des_spans))
                if args.perf:
                    from .analysis.bottleneck import attribute

                    print(attribute(timed, shape, cluster).render())

    print(f"shape {shape} ({shape.classify().value}), "
          f"AI {shape.arithmetic_intensity:.1f} flops/byte")
    n_cores = args.cores if args.cores is not None else machine.cluster.n_cores
    ceiling = roofline(shape, machine.cluster, n_cores=n_cores)
    print(f"roofline max ({n_cores} cores): {ceiling.max_gflops:.0f} GFLOPS")
    cpu = openblas_sgemm(shape, machine.cpu)
    print(f"OpenBLAS on the 16-core CPU (modeled): {cpu.gflops:.1f} GFLOPS "
          f"({100 * cpu.efficiency:.1f}%)")
    print()
    print(format_table(
        ["impl", "strategy", "timing", "time (us)", "GFLOPS", "efficiency"],
        rows,
    ))
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    registry = registry_for(default_machine().cluster.core)
    if args.tgemm:
        kern = registry.tgemm(min(args.m, 6), args.n, args.k)
    else:
        kern = registry.ftimm(args.m, args.n, args.k, args.dtype)
    info = kern.blocks[0]
    print(f"kernel {kern.spec} ({kern.name}): m_u={info.m_u} k_u={info.k_u} "
          f"II={kern.ii} cycles={kern.cycles} "
          f"efficiency={100 * kern.efficiency:.1f}% "
          f"({kern.gflops:.1f} GFLOPS/core)")
    sregs, vregs = kern.registers_used()
    print(f"registers: {vregs} vector, {sregs} scalar; "
          f"blocks: {[(b.m_u, b.k_u, b.ii) for b in kern.blocks]}")
    if args.table:
        print()
        print(kern.pipeline_table())
    if args.asm:
        from .isa.emitter import render_assembly

        block = kern.program.blocks[0]
        print("\nsetup:")
        print(render_assembly(block.setup))
        print(f"\nbody (x{block.trip}):")
        print(render_assembly(block.body))
        print("\nteardown:")
        print(render_assembly(block.teardown))
    return 0


def _histogram_lines(reg) -> list[str]:
    """One line per non-empty histogram in the registry."""
    lines = []
    for name, snap in sorted(reg.snapshot().items()):
        if snap.get("type") != "histogram" or not snap["count"]:
            continue
        lines.append(
            f"  {name}: n={snap['count']} "
            f"p50={snap['p50'] * 1e3:.3f}ms p95={snap['p95'] * 1e3:.3f}ms "
            f"p99={snap['p99'] * 1e3:.3f}ms max={snap['max'] * 1e3:.3f}ms"
        )
    return lines


def _cmd_perf(args: argparse.Namespace) -> int:
    from .analysis.bottleneck import attribute, diff_records
    from .core.blocking import TgemmPlan
    from .core.ftimm import lowered_program
    from .core.tuner import TuningDecision, tune
    from .executor.timed import run_timed
    from .obs import (
        append_record,
        collecting,
        last_matching,
        make_record,
        read_records,
    )

    m, n, k = args.shape
    shape = GemmShape(m, n, k)
    cluster = default_machine().cluster
    if args.cores is not None:
        cluster = cluster.with_cores(args.cores)
    if args.impl == "tgemm":
        decision = TuningDecision(
            strategy="tgemm",
            tgemm_plan=TgemmPlan().validate(cluster),
            reason="baseline",
        )
    else:
        decision = tune(
            shape, cluster, dtype=args.dtype,
            force_strategy=args.force_strategy,
        )
    with collecting() as reg:
        lowered = lowered_program(shape, cluster, decision)
        result = run_timed(lowered)
    report = attribute(result, shape, cluster, impl=args.impl)
    record = make_record(
        **report.to_record_fields(),
        profile=result.profile.to_dict(),
        metrics=reg.snapshot(),
    )
    earlier = read_records(args.runlog, skip_invalid=True)
    append_record(args.runlog, record)

    if args.json:
        # machine-readable mode: the appended run-log record, nothing else
        import json

        print(json.dumps(record, sort_keys=True))
        return 0

    print(report.render())

    for prefix, label in (
        ("core/lowering/", "program cache"),
        ("executor/functional/", "functional path"),
        ("core/batched/b_intern/", "B intern"),
        ("kernels/cache/", "kernel cache"),
        ("faults/", "faults"),
    ):
        counts = {
            name[len(prefix):]: snap["value"]
            for name, snap in reg.snapshot().items()
            if name.startswith(prefix) and snap.get("type") == "counter"
        }
        if counts:
            print()
            print(label + ": " + "  ".join(
                f"{k}={v:g}" for k, v in sorted(counts.items())
            ))

    hist_lines = _histogram_lines(reg)
    if hist_lines:
        print()
        print("histograms:")
        print("\n".join(hist_lines))

    if args.compare:
        prev = last_matching(
            earlier, shape=str(shape), impl=args.impl, cores=cluster.n_cores
        )
        print()
        if prev is None:
            print(f"compare: no earlier {shape} run in {args.runlog}")
        else:
            print(diff_records(prev, record))
    print(f"run-log: {args.runlog} ({len(earlier) + 1} records)")
    if args.metrics:
        print(reg.to_json(indent=1))
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    from .core.autotune import autotune
    from .obs import collecting

    m, n, k = args.shape
    shape = GemmShape(m, n, k)
    cluster = default_machine().cluster
    if args.cores is not None:
        cluster = cluster.with_cores(args.cores)
    validate_top = 0 if args.no_validate else args.validate_top
    with collecting() as reg:
        result = autotune(
            shape, cluster, validate_top=validate_top,
            mode="exhaustive" if args.exhaustive else "pruned",
        )
    print(f"shape {shape}: searched {result.n_candidates} candidates")
    print(f"  best: {result.best.label}  "
          f"{result.best.seconds * 1e6:.1f} us"
          f"{' (DES-validated)' if result.best.validated else ''}")
    print(f"  rule: {result.rule.label}  "
          f"{result.rule.seconds * 1e6:.1f} us")
    print(f"  rule/best: {result.improvement:.3f}x")
    stats = result.stats
    if stats is not None:
        print(f"  search [{stats.mode}]: {stats.describe()}")
        if stats.trajectory:
            print("  incumbent trajectory:")
            for scored, label, seconds in stats.trajectory:
                print(f"    after {scored:3d} scored: {label}  "
                      f"{seconds * 1e6:.1f} us")
    for name in reg.names("tuner/"):
        if name.endswith("_wall_s"):
            print(f"  {name}: {reg.distribution(name).total:.3f} s")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults.chaos import chaos_sweep
    from .obs import collecting

    impls = ("ftimm", "tgemm") if args.impl == "both" else (args.impl,)
    rates = tuple(float(r) for r in args.rates.split(","))
    with collecting() as reg:
        summary = chaos_sweep(
            seeds=range(args.seeds),
            rates=rates,
            impls=impls,
            core_failures=not args.no_core_failures,
            timed_probe=not args.no_timed_probe,
        )
    print(summary.describe())
    fault_counts = {
        name[len("faults/"):]: snap["value"]
        for name, snap in reg.snapshot().items()
        if name.startswith("faults/") and snap.get("type") == "counter"
    }
    if fault_counts:
        print("injector: " + "  ".join(
            f"{k}={v:g}" for k, v in sorted(fault_counts.items())
        ))
    return 0 if summary.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from .analysis.critical_path import critical_path
    from .faults.plan import FaultPlan
    from .obs import Tracer, append_record, collecting, make_record
    from .serve import (
        DegradePolicy,
        ServeConfig,
        chaos_serve,
        gateway_replay,
        make_requests,
        monitor,
        serve,
        serve_spans,
        sweep,
    )

    try:
        loads = sorted(float(x) for x in args.loads.split(","))
    except ValueError as exc:
        raise ReproError(f"bad --loads: {exc}") from None
    config = ServeConfig(
        policy=args.policy,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait,
        queue_cap=args.queue_cap,
        warmup=not args.no_warmup,
        degrade=(DegradePolicy()
                 if (args.degrade or args.chaos) else None),
        replicate_b=args.replicate_b,
    )

    if args.gateway:
        # live-path demo driver: push the highest offered load through
        # the asyncio gateway and hold it to the replay bit-identity
        # contract right here
        requests = make_requests(
            args.mix, rate_rps=loads[-1], n_requests=args.n,
            seed=args.seed, arrivals=args.arrivals,
        )
        replayed = make_requests(
            args.mix, rate_rps=loads[-1], n_requests=args.n,
            seed=args.seed, arrivals=args.arrivals,
        )
        live = gateway_replay(requests, config)
        replay = serve(replayed, config)
        identical = live.records == replay.records
        print(f"gateway [{args.policy}] at {loads[-1]:.0f} rps offered:")
        print(live.describe())
        print()
        print("records bit-identical to pre-drawn replay: "
              f"{'yes' if identical else 'NO — contract violation'}")
        return 0 if identical else 1

    if args.chaos:
        # serve-level chaos: one sick cluster under aggressive bit-flips
        # at the highest offered load, contract-audited end to end
        n_clusters = default_machine().n_clusters
        chaos_config = dataclasses.replace(
            config,
            faults=FaultPlan(
                seed=args.seed, bitflip_rate=1.0, max_kernel_retries=0,
            ),
            cluster_fault_scale=(1.0,) + (0.0,) * (n_clusters - 1),
        )
        requests = make_requests(
            args.mix, rate_rps=loads[-1], n_requests=args.n,
            seed=args.seed, arrivals=args.arrivals,
        )
        chaos = chaos_serve(requests, chaos_config)
        print(chaos.describe())
        return 0 if chaos.ok else 1

    with collecting() as reg:
        result = sweep(
            args.mix, loads,
            n_requests=args.n, seed=args.seed, config=config,
            arrivals=args.arrivals, compare_naive=args.compare_naive,
        )
    print(result.render())

    warmup = result.points[-1].report.warmup
    if warmup.n_buckets:
        print()
        print(f"warmup: {warmup.n_buckets} bucket(s) "
              f"in {warmup.wall_s * 1e3:.1f} ms")

    hist_lines = _histogram_lines(reg)
    if hist_lines:
        print()
        print("latency histograms (all sweep points pooled):")
        print("\n".join(hist_lines))

    if args.latency_table:
        last = result.points[-1].report
        print()
        print(f"per-request latency at {result.points[-1].offered_rps:.0f} "
              "rps (highest offered load):")
        print(last.latency_table())

    last = result.points[-1]

    # critical-path attribution + SLO monitoring at the highest offered
    # load — the point where queueing and shedding actually show up
    cp = critical_path(last.report.records, last.report.batches)
    print()
    print(f"critical path at {last.offered_rps:.0f} rps:")
    print(cp.render())
    slo = monitor(last.report.records)
    print()
    print(slo.render())
    if last.report.placement is not None:
        print()
        print(last.report.placement.describe())

    record = make_record(
        shape=f"mix:{result.mix_name}",
        impl="serve",
        strategy=result.policy,
        cores=default_machine().cluster.n_cores,
        seconds=last.report.makespan_s,
        gflops=last.report.throughput_gflops,
        efficiency=(last.report.goodput_rps / last.offered_rps
                    if last.offered_rps else 0.0),
        bound="serve",
        profile=result.to_record_fields(),
        metrics=reg.snapshot(),
    )
    # full per-request / per-batch rows so `repro trace runs.jsonl` can
    # re-run the analysis offline (make_record has a fixed signature)
    record["serve"] = {
        "requests": [dataclasses.asdict(r) for r in last.report.records],
        "batches": [dict(dataclasses.asdict(b), redispatches=b.redispatches)
                    for b in last.report.batches],
    }
    append_record(args.runlog, record)
    n_alerts = slo.append_to_runlog(args.runlog)
    print()
    print(f"run-log: {args.runlog}"
          + (f" (+{n_alerts} SLO alert record(s))" if n_alerts else ""))

    if args.trace:
        # the highest-load point's trace, derived from its report
        tracer = Tracer()
        serve_spans(last.report, tracer, sample=args.trace_rate)
        path = tracer.save(args.trace)
        print(f"trace: {len(tracer.spans)} spans -> {path} "
              "(load in https://ui.perfetto.dev)")
    return 0


def _load_critical_path(path, quantile: float):
    """One trace input -> (CriticalPathReport, human description).

    ``.json`` is an exported Chrome trace (validated, reconstructed from
    the span sidecar); anything else is a JSONL run-log whose most recent
    serve record carries the per-request/per-batch rows.
    """
    import json
    from pathlib import Path

    from .analysis.critical_path import critical_path, from_spans
    from .obs import load_spans, read_records, validate_chrome_trace
    from .serve import BatchRecord, RequestRecord

    path = Path(path)
    if not path.exists():
        raise ReproError(f"no such file: {path}")
    if path.suffix == ".json":
        trace = json.loads(path.read_text())
        validate_chrome_trace(trace)
        spans = load_spans(path)
        desc = (f"{path}: {len(trace['traceEvents'])} events / "
                f"{len(spans)} spans — valid Chrome trace "
                "(load in https://ui.perfetto.dev)")
        return from_spans(spans, quantile=quantile), desc, spans
    records = read_records(path, skip_invalid=True)
    serve_recs = [r for r in records
                  if r.get("impl") == "serve" and r.get("serve")]
    if not serve_recs:
        raise ReproError(
            f"{path}: no serve records with per-request rows "
            "(run `repro serve` first)"
        )
    payload = serve_recs[-1]["serve"]
    reqs = [RequestRecord(**d) for d in payload["requests"]]
    batches = [
        BatchRecord(**{k: v for k, v in d.items() if k != "redispatches"})
        for d in payload["batches"]
    ]
    desc = (f"{path}: serve record {len(serve_recs)} of {len(records)} "
            f"run-log rows ({len(reqs)} requests, {len(batches)} batches)")
    return critical_path(reqs, batches, quantile=quantile), desc, reqs


def _cmd_trace(args: argparse.Namespace) -> int:
    from collections import Counter
    from pathlib import Path

    from .analysis.critical_path import diff_critical_paths
    from .obs import read_records
    from .serve import SLO_SCHEMA, monitor

    if args.path_b is not None:
        # cross-run diff: where did run B's tail move relative to run A's?
        cp_a, desc_a, _ = _load_critical_path(args.path_a, args.quantile)
        cp_b, desc_b, _ = _load_critical_path(args.path_b, args.quantile)
        print(f"A: {desc_a}")
        print(f"B: {desc_b}")
        print()
        diff = diff_critical_paths(
            cp_a, cp_b, quantiles=(0.50, args.quantile)
        )
        print(diff.render())
        return 0

    path = Path(args.path_a)
    cp, desc, extra = _load_critical_path(path, args.quantile)
    print(desc)
    if path.suffix == ".json":
        census = Counter(s.category for s in extra)
        print("spans by category: " + "  ".join(
            f"{cat}={n}" for cat, n in sorted(census.items())
        ))
        print()
        print(cp.render())
        return 0
    print()
    print(cp.render())
    print()
    print(monitor(extra).render())
    alerts = read_records(path, SLO_SCHEMA)
    if alerts:
        print(f"(run-log already holds {len(alerts)} SLO alert record(s))")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    m, n, k = args.shape
    shape = GemmShape(m, n, k)
    print(f"{shape}: {shape.classify().value}")
    print(f"flops: {shape.flops:,}  compulsory bytes: {shape.total_bytes:,}  "
          f"AI: {shape.arithmetic_intensity:.2f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import run_all

    if args.name == "all":
        run_all.main([])
        return 0
    module = next(
        m for m in run_all.MODULES if run_all.cli_name(m) == args.name
    )
    for result in module.run():
        print(result.render(chart=True))
        print()
    return 0


def _cmd_machine(_args: argparse.Namespace) -> int:
    machine = default_machine()
    cluster, core = machine.cluster, machine.cluster.core
    rows = [
        ["DSP cores per cluster", cluster.n_cores],
        ["core clock", f"{core.clock_hz / 1e9:.1f} GHz"],
        ["FP32 SIMD width", core.simd_lanes],
        ["FMAC pipes / core", core.n_vector_fmac],
        ["core peak", f"{core.peak_flops / 1e9:.1f} GFLOPS"],
        ["cluster peak", f"{cluster.peak_flops / 1e9:.1f} GFLOPS"],
        ["AM / SM per core", f"{core.am_bytes // 1024} / {core.sm_bytes // 1024} KiB"],
        ["GSM", f"{cluster.gsm_bytes // (1024 * 1024)} MiB"],
        ["DDR port", f"{cluster.ddr_bandwidth / 1e9:.1f} GB/s"],
        ["CPU", f"{machine.cpu.n_cores} cores, "
                f"{machine.cpu.peak_flops / 1e9:.1f} GFLOPS"],
    ]
    print("FT-m7032 model (one GPDSP cluster + host CPU):")
    print(format_table(["parameter", "value"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .experiments.run_all import MODULES, cli_name

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ftIMM on a simulated FT-m7032 (CLUSTER 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gemm = sub.add_parser("gemm", help="run / model one GEMM")
    p_gemm.add_argument("shape", type=_parse_shape, help="MxNxK")
    p_gemm.add_argument("--impl", choices=["ftimm", "tgemm", "both"],
                        default="both")
    p_gemm.add_argument("--cores", type=int, default=None)
    p_gemm.add_argument("--timing", default="auto",
                        choices=["auto", "des", "analytic", "none"])
    p_gemm.add_argument("--force-strategy", choices=["m", "k", "tgemm"],
                        default=None)
    p_gemm.add_argument("--dtype", choices=["f32", "f64"], default="f32")
    p_gemm.add_argument("--verify", action="store_true",
                        help="run functionally on random operands and check")
    p_gemm.add_argument("--kernel-exec",
                        choices=["numpy", "compiled", "interp"],
                        default="numpy",
                        help="how functional kernels compute: numpy fast "
                             "path, or the generated ISA stream "
                             "(trace-compiled or interpreted)")
    p_gemm.add_argument("--trace", metavar="OUT.json", default=None,
                        help="write a Chrome-trace of the DES run")
    p_gemm.add_argument("--plan", action="store_true",
                        help="print the lowered op-stream summary")
    p_gemm.add_argument("--perf", action="store_true",
                        help="print the per-epoch bottleneck attribution")
    p_gemm.set_defaults(fn=_cmd_gemm)

    p_perf = sub.add_parser(
        "perf", help="profile one GEMM and attribute its bottleneck"
    )
    p_perf.add_argument("--shape", type=_parse_shape, required=True,
                        metavar="MxNxK")
    p_perf.add_argument("--impl", choices=["ftimm", "tgemm"], default="ftimm")
    p_perf.add_argument("--cores", type=int, default=None)
    p_perf.add_argument("--dtype", choices=["f32", "f64"], default="f32")
    p_perf.add_argument("--force-strategy", choices=["m", "k", "tgemm"],
                        default=None)
    p_perf.add_argument("--runlog", metavar="OUT.jsonl", default="runs.jsonl",
                        help="JSONL run-log to append to (default runs.jsonl)")
    p_perf.add_argument("--compare", action="store_true",
                        help="diff against the latest matching run-log entry")
    p_perf.add_argument("--metrics", action="store_true",
                        help="also dump the raw metrics registry as JSON")
    p_perf.add_argument("--json", action="store_true",
                        help="print only the run-log record as one JSON "
                             "object (machine-readable; still appends)")
    p_perf.set_defaults(fn=_cmd_perf)

    p_kernel = sub.add_parser("kernel", help="generate one micro-kernel")
    p_kernel.add_argument("m", type=int)
    p_kernel.add_argument("n", type=int)
    p_kernel.add_argument("k", type=int)
    p_kernel.add_argument("--table", action="store_true",
                          help="print the pipeline reservation table")
    p_kernel.add_argument("--asm", action="store_true",
                          help="print the instruction stream")
    p_kernel.add_argument("--tgemm", action="store_true",
                          help="the fixed TGEMM kernel instead")
    p_kernel.add_argument("--dtype", choices=["f32", "f64"], default="f32")
    p_kernel.set_defaults(fn=_cmd_kernel)

    p_tune = sub.add_parser(
        "autotune", help="search candidate plans for one shape"
    )
    p_tune.add_argument("shape", type=_parse_shape, help="MxNxK")
    p_tune.add_argument("--cores", type=int, default=None)
    p_tune.add_argument("--validate-top", type=int, default=3,
                        help="DES-validate the best N candidates")
    p_tune.add_argument("--no-validate", action="store_true",
                        help="pure analytic search (skip DES validation)")
    p_tune.add_argument("--exhaustive", action="store_true",
                        help="score every candidate (no bound pruning; "
                             "the escape hatch the pruned search is "
                             "tested against)")
    p_tune.set_defaults(fn=_cmd_autotune)

    p_classify = sub.add_parser("classify", help="shape taxonomy")
    p_classify.add_argument("shape", type=_parse_shape)
    p_classify.set_defaults(fn=_cmd_classify)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: every run bit-correct or a typed error",
    )
    p_chaos.add_argument("--seeds", type=int, default=4,
                         help="fault-plan seeds per scenario (default 4)")
    p_chaos.add_argument("--rates", default="1e-3,1e-2",
                         help="comma-separated bit-flip rates")
    p_chaos.add_argument("--impl", choices=["ftimm", "tgemm", "both"],
                         default="both")
    p_chaos.add_argument("--no-core-failures", action="store_true",
                         help="skip the mid-run core-loss scenarios")
    p_chaos.add_argument("--no-timed-probe", action="store_true",
                         help="skip the DES run with DMA failures")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="online serving: offered-load sweep over a request mix",
    )
    from .serve import MIXES, POLICIES

    p_serve.add_argument("--mix", choices=sorted(MIXES), default="overload")
    p_serve.add_argument("--policy", choices=list(POLICIES),
                         default="least_loaded")
    p_serve.add_argument("--loads", default="30000,60000,120000,240000",
                         help="comma-separated offered loads (requests/s)")
    p_serve.add_argument("--n", type=int, default=150,
                         help="requests per sweep point (default 150)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--arrivals", choices=["poisson", "bursty"],
                         default="poisson")
    p_serve.add_argument("--max-batch", type=int, default=4,
                         help="max requests coalesced per batch (default 4)")
    p_serve.add_argument("--max-wait", type=float, default=5e-4,
                         help="max bucket wait in seconds (default 5e-4)")
    p_serve.add_argument("--queue-cap", type=int, default=64,
                         help="admission queue bound (default 64)")
    p_serve.add_argument("--no-warmup", action="store_true",
                         help="skip plan/kernel warmup (pay cold tunes)")
    p_serve.add_argument("--gateway", action="store_true",
                         help="drive the highest offered load through the "
                              "live asyncio gateway instead of the sweep "
                              "and audit bit-identity against the "
                              "pre-drawn replay (non-zero exit on "
                              "violation)")
    p_serve.add_argument("--compare-naive", action="store_true",
                         help="also sweep the one-call-per-request baseline")
    p_serve.add_argument("--degrade", action="store_true",
                         help="enable graceful degradation: priority "
                              "classes, burn-driven proactive shedding "
                              "and cluster quarantine")
    p_serve.add_argument("--chaos", action="store_true",
                         help="run the serve-level chaos harness instead "
                              "of the sweep: one sick cluster under "
                              "bit-flips at the highest offered load, "
                              "end-to-end contract audited (implies "
                              "--degrade; non-zero exit on violation)")
    p_serve.add_argument("--replicate-b",
                         choices=["off", "adaptive"],
                         default="off",
                         help="replicated-B placement: promote hot "
                              "shared-B buckets to multi-cluster replica "
                              "sets and route batches to replica holders "
                              "(default off; off is bit-identical to the "
                              "pre-placement engine)")
    p_serve.add_argument("--trace-sample", type=_unit_fraction, default=1.0,
                         metavar="RATE", dest="trace_rate",
                         help="deterministic per-request trace sampling "
                              "rate in [0, 1]; sheds, failures and SLO "
                              "misses are always kept (default 1.0)")
    p_serve.add_argument("--latency-table", action="store_true",
                         help="print the per-request latency table at the "
                              "highest offered load")
    p_serve.add_argument("--runlog", metavar="OUT.jsonl",
                         default="runs.jsonl")
    p_serve.add_argument("--trace", metavar="OUT.json", default=None,
                         help="write the highest-load point's request "
                              "trace as a Chrome trace")
    p_serve.set_defaults(fn=_cmd_serve)

    p_trace = sub.add_parser(
        "trace",
        help="analyze a serve run: critical path + SLO from a run-log, "
             "or validate and analyze an exported Chrome trace; give two "
             "inputs to diff their tail decompositions",
    )
    p_trace.add_argument("path_a", metavar="runs.jsonl|trace.json",
                         help=".jsonl run-log or .json Chrome trace")
    p_trace.add_argument("path_b", metavar="B", nargs="?", default=None,
                         help="second run to diff against (same formats); "
                              "prints per-segment p50/p99 tail deltas")
    p_trace.add_argument("--quantile", type=float, default=0.99,
                         help="tail quantile to attribute (default 0.99)")
    p_trace.set_defaults(fn=_cmd_trace)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument(
        "name", choices=[cli_name(m) for m in MODULES] + ["all"]
    )
    p_exp.set_defaults(fn=_cmd_experiment)

    p_machine = sub.add_parser("machine", help="show the machine model")
    p_machine.set_defaults(fn=_cmd_machine)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
