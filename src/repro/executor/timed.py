"""Discrete-event (fine-grained) timing of a lowered plan.

Each core's op stream is walked by a simulation process:

* DMA ops spawn onto the core's DMA engine (FIFO channels), with the data
  movement charged to the contended DDR or GSM channel;
* KERNEL ops spawn onto the core's single compute pipeline;
* both wait first for their explicit ``deps`` (ping-pong buffer reuse);
* SYNC ops make the walk wait until every prior op of this core completed,
  then until all cores arrived, then a barrier delay plus any modeled
  reduction time elapses.

Because processes spawn eagerly inside an epoch, DMA for iteration ``i+1``
naturally overlaps compute for iteration ``i`` exactly where the plan's
dependencies allow — the ping-pong behaviour of Algorithms 1, 4 and 5
emerges rather than being hard-coded.

A sliding window caps in-flight processes per core so multi-hundred-
thousand-op plans simulate in bounded memory.

Observability: when a metrics registry is active (``repro.obs.collecting``)
or ``profile=True``, the run additionally fills a per-epoch
:class:`~repro.obs.profile.RunProfile` (compute/DMA busy, barrier waits,
window stalls, bytes per medium) and publishes simulator/channel/DMA
counters.  All hooks are observation-only: the simulated timeline is
bit-identical with observability on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.plans import GemmExecution, OpKind
from ..errors import SimulationError
from ..hw.cluster import ClusterSim
from ..hw.event_sim import Event, Simulator
from ..obs import MetricsRegistry, RunProfile
from ..obs.registry import current as _obs_current
from ..obs.trace import current_tracer

#: max op processes spawned ahead of the oldest incomplete one, per core.
_WINDOW = 128


@dataclass
class TimedResult:
    """Timing outcome of one simulated GEMM execution."""

    seconds: float
    shape_flops: int
    executed_flops: int
    strategy: str
    n_cores: int
    peak_flops: float
    events_processed: int
    dma_bytes: int
    core_busy: list[float] = field(default_factory=list)
    ddr_mean_concurrency: float = 0.0
    #: fraction of the *theoretical* DDR port drawn on average (set when
    #: run_timed(record_bandwidth=True)); the paper's "actual bandwidth
    #: below theoretical" quantity
    ddr_utilization: float | None = None
    #: per-epoch busy-time accounting; set when profiling was enabled
    profile: RunProfile | None = None

    @property
    def gflops(self) -> float:
        """Useful-problem GFLOP/s (TGEMM's padding work doesn't count)."""
        return self.shape_flops / self.seconds / 1e9 if self.seconds else 0.0

    @property
    def efficiency(self) -> float:
        return self.shape_flops / (self.seconds * self.peak_flops) if self.seconds else 0.0


def run_timed(
    execution: GemmExecution,
    *,
    record_bandwidth: bool = False,
    metrics: MetricsRegistry | None = None,
    profile: bool = False,
    faults=None,
) -> TimedResult:
    """Simulate the plan and return elapsed time + utilization stats.

    Under an ambient tracer (:func:`repro.obs.tracing`) the run records
    a span per kernel, DMA transfer and sync (kernel spans are exact; DMA
    spans cover queueing + transfer) and one per epoch.
    ``record_bandwidth=True`` additionally samples the DDR channel's
    aggregate draw and reports its time-average against the theoretical
    port.

    ``metrics`` (default: the ambient registry from
    :func:`repro.obs.collecting`, if any) receives simulator, channel and
    DMA-engine counters; ``profile=True`` — implied by an active registry —
    attaches a per-epoch :class:`~repro.obs.profile.RunProfile` to the
    result for bottleneck attribution.

    ``faults`` (a :class:`~repro.faults.inject.FaultInjector`) arms the
    fault model: DMA transfers may fail and retry with backoff (costed in
    simulated time), the DDR port honours the plan's degradation windows,
    and an armed core fault makes that core raise
    :class:`~repro.errors.CoreFailureError` out of :meth:`Simulator.run`
    the first time it issues work past the fault instant — the resilient
    driver catches it and re-dispatches on the surviving cores.
    """
    if metrics is None:
        metrics = _obs_current()
    cluster = ClusterSim(
        execution.cluster, record_bandwidth=record_bandwidth, faults=faults
    )
    sim = cluster.sim
    n_cores = execution.cluster.n_cores
    tracer = current_tracer()
    # an ambient tracer needs the epoch boundaries too (epoch spans)
    prof = (RunProfile(n_cores=n_cores)
            if (profile or metrics is not None or tracer is not None)
            else None)

    # barrier plumbing: per sync id, one arrival event per core and a done
    # event that fires barrier_cycles + sync_seconds after the last arrival
    arrivals: dict[int, list[Event]] = {}
    done: dict[int, Event] = {}
    for sid in range(execution.n_syncs):
        arrivals[sid] = [sim.event(f"arrive{sid}c{c}") for c in range(n_cores)]
        done[sid] = sim.event(f"sync{sid}done")

    barrier_s = execution.cluster.barrier_cycles / execution.cluster.core.clock_hz
    sync_seconds: dict[int, float] = {}
    sync_tags: dict[int, str] = {}
    for core_ops in execution.core_ops:
        for op in core_ops:
            if op.kind is OpKind.SYNC:
                sync_seconds[op.sync_id] = op.sync_seconds
                sync_tags.setdefault(op.sync_id, op.tag)

    for sid in range(execution.n_syncs):
        def _arm(sid: int = sid) -> None:
            gathered = sim.all_of(arrivals[sid])

            def _fire(_ev: Event, sid: int = sid) -> None:
                delay = barrier_s + sync_seconds.get(sid, 0.0)
                sim.timeout(delay).wait(lambda _e: done[sid].succeed())

            gathered.wait(_fire)

        _arm()
        if prof is not None:
            # each sync completion closes an epoch at the global timeline
            done[sid].wait(
                lambda _ev, sid=sid: prof.close_epoch(
                    sid, sim.now, sync_tags.get(sid, "")
                )
            )

    clock = execution.cluster.core.clock_hz

    def dma_proc(core: int, op, dep_events: list[Event], epoch: int):
        if dep_events:
            yield sim.all_of(dep_events)
        if faults is not None:
            faults.check_core_alive_timed(core, sim.now)
        start = sim.now
        yield cluster.cores[core].dma.issue(op.desc)
        if prof is not None:
            prof.add_dma(
                epoch, core, start, sim.now,
                op.desc.medium.value, op.desc.nbytes,
            )

    def kernel_proc(core: int, op, dep_events: list[Event], epoch: int):
        if dep_events:
            yield sim.all_of(dep_events)
        if faults is not None:
            faults.check_core_alive_timed(core, sim.now)
        yield cluster.cores[core].run_kernel(op.cycles, tag=op.tag)
        duration = op.cycles / clock
        if prof is not None:
            prof.add_compute(epoch, core, duration)
        if tracer is not None:
            tracer.record(
                op.tag or "kernel",
                category="kernel",
                start_s=sim.now - duration,
                end_s=sim.now,
                track=f"core{core}/compute",
                args={"core": core, "cycles": op.cycles, "epoch": epoch},
            )

    def walk(core: int, ops):
        events: list[Event | None] = [None] * len(ops)
        epoch = 0
        for idx, op in enumerate(ops):
            if idx >= _WINDOW:
                old = events[idx - _WINDOW]
                if old is not None and not old.triggered:
                    if prof is not None:
                        stall_t0 = sim.now
                        yield old
                        prof.add_window_stall(epoch, core, sim.now - stall_t0)
                    else:
                        yield old
            if op.kind is OpKind.SYNC:
                prior = [e for e in events[:idx] if e is not None and not e.triggered]
                if prior:
                    yield sim.all_of(prior)
                arrival_t = sim.now
                arrivals[op.sync_id][core].succeed()
                yield done[op.sync_id]
                if prof is not None:
                    prof.add_sync_wait(epoch, core, sim.now - arrival_t)
                if tracer is not None and core == 0:
                    tracer.record(
                        op.tag or f"sync{op.sync_id}",
                        category="sync",
                        start_s=arrival_t,
                        end_s=sim.now,
                        track="cluster/sync",
                        args={"sync_id": op.sync_id},
                    )
                events[idx] = done[op.sync_id]
                epoch += 1
                continue
            deps = [events[d] for d in op.deps]
            if any(e is None for e in deps):
                raise SimulationError(f"op {idx} on core {core} has unresolved dep")
            if op.kind is OpKind.DMA:
                events[idx] = sim.process(
                    dma_proc(core, op, deps, epoch), f"dma{core}.{idx}"
                )
            else:
                events[idx] = sim.process(
                    kernel_proc(core, op, deps, epoch), f"k{core}.{idx}"
                )
        remaining = [e for e in events if e is not None and not e.triggered]
        if remaining:
            yield sim.all_of(remaining)

    walkers = [
        sim.process(walk(core, ops), f"walk{core}")
        for core, ops in enumerate(execution.core_ops)
    ]
    sim.all_of(walkers, "plan_done")
    sim.run()
    for w in walkers:
        if not w.triggered:
            raise SimulationError(
                "plan deadlocked: a core never finished its op stream"
            )

    if prof is not None:
        prof.finish(sim.now)
    if tracer is not None:
        for ep in prof.epochs:
            tracer.record(
                ep.sync_tag or f"epoch{ep.index}",
                category="epoch",
                start_s=ep.start,
                end_s=ep.end,
                track="epochs",
                args={
                    "index": ep.index,
                    "compute_frac": ep.compute_frac,
                    "dma_frac": ep.dma_frac,
                    "sync_frac": ep.sync_frac,
                    "stall_frac": ep.stall_frac,
                },
            )
    if metrics is not None:
        _publish_metrics(metrics, sim, cluster, prof)

    # per-precision peak: the plan's dtype sets lanes per register
    plan = execution.meta.get("plan")
    esize = getattr(plan, "esize", 4)
    peak = execution.cluster.peak_flops * 4 / esize
    utilization = None
    if record_bandwidth and cluster.ddr_channel.timeline is not None:
        from ..hw.bandwidth import mean_utilization

        utilization = mean_utilization(
            cluster.ddr_channel.timeline,
            execution.cluster.ddr_bandwidth,
            sim.now,
        )
    return TimedResult(
        seconds=sim.now,
        shape_flops=execution.shape.flops,
        executed_flops=execution.total_flops,
        strategy=execution.strategy,
        n_cores=n_cores,
        peak_flops=peak,
        events_processed=sim.events_processed,
        dma_bytes=sum(c.dma.bytes_moved for c in cluster.cores),
        core_busy=[c.busy_time for c in cluster.cores],
        ddr_mean_concurrency=cluster.ddr_channel.stats.mean_concurrency(),
        ddr_utilization=utilization,
        profile=prof,
    )


def _publish_metrics(
    m: MetricsRegistry,
    sim: Simulator,
    cluster: ClusterSim,
    prof: RunProfile | None,
) -> None:
    """Copy one run's simulator/channel/DMA statistics into the registry.

    Counters accumulate across runs under the same registry (e.g. the DES
    validation passes of the autotuner); gauges keep their high-water mark.
    """
    m.counter("sim/events_processed").inc(sim.events_processed)
    m.counter("sim/process_wakeups").inc(sim.process_wakeups)
    m.gauge("sim/heap_peak").set(sim.heap_peak)

    for name, channel in (("ddr", cluster.ddr_channel), ("gsm", cluster.gsm_channel)):
        stats = channel.stats
        m.counter(f"bw/{name}/bytes_served").inc(stats.bytes_served)
        m.counter(f"bw/{name}/busy_s").inc(stats.busy_time)
        m.counter(f"bw/{name}/contended_s").inc(stats.contended_time)
        m.counter(f"bw/{name}/stall_flow_s").inc(stats.stall_flow_seconds)
        m.gauge(f"bw/{name}/mean_concurrency").set(stats.mean_concurrency())

    queue_depth_peak = 0
    for core in cluster.cores:
        m.distribution("exec/core_busy_s").add(core.busy_time)
        m.counter("exec/compute_cycles").inc(core.compute_cycles)
        engine = core.dma
        m.counter("dma/transfers").inc(engine.transfers)
        m.counter("dma/queue_wait_s").inc(engine.queue_wait_s)
        queue_depth_peak = max(queue_depth_peak, engine.queue_depth_peak)
        for medium, nbytes in engine.bytes_by_medium.items():
            m.counter(f"dma/bytes/{medium}").inc(nbytes)
    m.gauge("dma/queue_depth_peak").set(queue_depth_peak)

    if prof is not None:
        m.gauge("exec/epochs").set(len(prof.epochs))
        m.counter("exec/sync_wait_s").inc(
            sum(sum(ep.sync_wait) for ep in prof.epochs)
        )
        m.counter("exec/window_stall_s").inc(
            sum(sum(ep.window_stall) for ep in prof.epochs)
        )
