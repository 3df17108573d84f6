"""Discrete-event (fine-grained) timing of a lowered plan.

Each core's op stream is walked in order by a small state machine
(:class:`_Walk`) on the callback-driven DES kernel
(:mod:`repro.hw.event_sim`):

* DMA ops spawn onto the core's DMA engine (FIFO channels), with the data
  movement charged to the contended DDR or GSM channel;
* KERNEL ops spawn onto the core's single compute pipeline;
* both wait first for their explicit ``deps`` (ping-pong buffer reuse),
  a counter of the dep completions still outstanding;
* SYNC ops make the walk wait until every prior op of this core completed,
  then until all cores arrived, then a barrier delay plus any modeled
  reduction time elapses.

Because ops spawn eagerly inside an epoch, DMA for iteration ``i+1``
naturally overlaps compute for iteration ``i`` exactly where the plan's
dependencies allow — the ping-pong behaviour of Algorithms 1, 4 and 5
emerges rather than being hard-coded.

A sliding window caps in-flight ops per core so multi-hundred-
thousand-op plans simulate in bounded memory.

Same-instant order.  Ops reach their DMA engine or pipeline in one
:meth:`_Run.dispatch` call per instant: first every op whose deps
completed at this instant, in completion order, then every op spawned at
it, in spawn order, each spawned op first registering on the deps still
pending.  It is the order the ops would have if each hop (start,
request, grant) were a queued call of its own: an op whose deps
completed would queue its request behind every completion of the
instant, and a spawned op a start call whose request comes one queued
call later, behind all of those.  So every request sees each slot freed
at the instant, every queued request keeps its place, a spawned op
registers on its deps after the walks' own waits, and each grant's timed
push (through :meth:`~repro.hw.event_sim.Simulator.schedule_soon`) gets
the ``seq`` a queued grant call would: the grants of freed slots first,
then those of ready ops, then those of spawned ops.  A core fault is
checked as an op's last dep completes, or as a spawned op with no dep
pending starts: where those calls would check it.  The argument assumes
positive durations: plan validation keeps kernel cycles positive, and
lowered plans on the configured machines have positive DMA payloads,
DMA startups and barriers.  A zero duration chains same-instant work
past one dispatch, which the argument does not cover.

Observability: when a metrics registry is active (``repro.obs.collecting``)
or a tracer (``repro.obs.tracing``), the run additionally fills a per-epoch
:class:`~repro.obs.profile.RunProfile` (compute/DMA busy, barrier waits,
window stalls, bytes per medium) and publishes simulator/channel/DMA
counters.  All hooks are observation-only: the simulated timeline is
bit-identical with observability on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.plans import GemmExecution, OpKind
from ..errors import SimulationError
from ..hw.cluster import ClusterSim
from ..hw.event_sim import Event, Simulator
from ..obs import MetricsRegistry, RunProfile
from ..obs.registry import current as _obs_current
from ..obs.trace import current_tracer

#: max ops spawned ahead of the oldest incomplete one, per core.
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
    faults=None,
) -> TimedResult:
    """Simulate the plan and return elapsed time + utilization stats.

    Under an ambient tracer (:func:`repro.obs.tracing`) the run records
    a span per kernel, DMA transfer and sync (kernel spans are exact; DMA
    spans cover queueing + transfer) and one per epoch.
    ``record_bandwidth=True`` additionally samples the DDR channel's
    aggregate draw and reports its time-average against the theoretical
    port.

    Under an ambient registry (:func:`repro.obs.collecting`) the run
    publishes simulator, channel and DMA-engine counters and attaches a
    per-epoch :class:`~repro.obs.profile.RunProfile` to the result for
    bottleneck attribution.

    ``faults`` (a :class:`~repro.faults.inject.FaultInjector`) arms the
    fault model: DMA transfers may fail and retry with backoff (costed in
    simulated time), the DDR port honours the plan's degradation windows,
    and an armed core fault makes that core raise
    :class:`~repro.errors.CoreFailureError` out of :meth:`Simulator.run`
    the first time it issues work past the fault instant — the resilient
    driver catches it and re-runs the same program with the dead core's
    op stream on a survivor's DMA engine and compute pipeline
    (:meth:`~repro.faults.inject.FaultInjector.host`).
    """
    metrics = _obs_current()
    cluster = ClusterSim(
        execution.cluster, record_bandwidth=record_bandwidth, faults=faults
    )
    sim = cluster.sim
    n_cores = execution.cluster.n_cores
    tracer = current_tracer()
    # an ambient tracer needs the epoch boundaries too (epoch spans)
    prof = (RunProfile(n_cores=n_cores)
            if metrics is not None or tracer is not None
            else None)

    run = _Run(execution, cluster, faults, prof, tracer)
    walks = [_Walk(run, core, ops) for core, ops in enumerate(execution.core_ops)]
    for walk in walks:
        sim.call_soon(walk.start)
    sim.run()
    if not all(walk.finished for walk in walks):
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


class _Run:
    """What the walks and ops of one :func:`run_timed` call share, and the
    cluster-wide SYNC barriers: sync ``sid`` is ``released``
    ``barrier_cycles`` plus its modeled reduction time after the last
    core arrives."""

    __slots__ = ("sim", "cores", "faults", "prof", "tracer", "clock",
                 "n_cores", "barrier_s", "sync_seconds", "arrived",
                 "released", "ready", "spawned", "dispatch_queued")

    def __init__(self, execution: GemmExecution, cluster: ClusterSim,
                 faults, prof: RunProfile | None, tracer) -> None:
        self.sim = sim = cluster.sim
        self.cores = cluster.cores
        self.faults = faults
        self.prof = prof
        self.tracer = tracer
        self.clock = execution.cluster.core.clock_hz
        self.n_cores = execution.cluster.n_cores
        self.barrier_s = execution.cluster.barrier_cycles / self.clock
        self.sync_seconds: dict[int, float] = {}
        sync_tags: dict[int, str] = {}
        for core_ops in execution.core_ops:
            for op in core_ops:
                if op.kind is OpKind.SYNC:
                    self.sync_seconds[op.sync_id] = op.sync_seconds
                    sync_tags.setdefault(op.sync_id, op.tag)
        #: per sync id, the cores that arrived so far
        self.arrived: list[set[int]] = [set() for _ in range(execution.n_syncs)]
        self.released = [Event(f"sync{sid}done")
                         for sid in range(execution.n_syncs)]
        #: ops whose deps completed, and ops spawned, at this instant;
        #: :meth:`dispatch` requests their DMA engines and pipelines
        self.ready: list[_OpRun] = []
        self.spawned: list[_OpRun] = []
        self.dispatch_queued = False
        if prof is not None:
            # each sync completion closes an epoch at the global timeline
            for sid, released in enumerate(self.released):
                released.wait(
                    lambda _ev, sid=sid: prof.close_epoch(
                        sid, sim.now, sync_tags.get(sid, "")
                    )
                )

    def queue_dispatch(self) -> None:
        self.dispatch_queued = True
        self.sim.call_soon(self.dispatch)

    def dispatch(self, _arg=None) -> None:
        """Request resources for this instant's ready ops, then start its
        spawned ops, each group in the order it was queued (the module
        docstring says why this keeps the order of a queued call per
        hop)."""
        self.dispatch_queued = False
        ready, spawned = self.ready, self.spawned
        for op_run in ready:
            op_run.request()
        ready.clear()
        for op_run in spawned:
            op_run.start()
        spawned.clear()

    def arrive(self, sid: int, core: int) -> None:
        arrived = self.arrived[sid]
        if core in arrived:
            raise SimulationError(f"core {core} arrived at sync {sid} twice")
        arrived.add(core)
        if len(arrived) == self.n_cores:
            delay = self.barrier_s + self.sync_seconds.get(sid, 0.0)
            self.sim.schedule(delay, self.released[sid].succeed)


class _Walk:
    """One core's op stream, walked in order.

    Each DMA or KERNEL op spawns an :class:`_OpRun`; the walk waits only
    on the in-flight window and at SYNC ops, where it waits for every
    op of this core before it, arrives, and waits for the release.
    ``core`` is the stream's own core and ``host`` the core that runs
    it: the same one, or the survivor hosting a dead core's stream.  Its
    ops, window stalls and sync waits are charged to ``host``.
    """

    __slots__ = ("run", "core", "host", "dma", "cpu", "ops", "events", "idx",
                 "epoch", "t_mark", "done", "pending", "then", "finished")

    def __init__(self, run: _Run, core: int, ops) -> None:
        self.run = run
        self.core = core
        self.host = core if run.faults is None else run.faults.host(core)
        #: the host's DMA engine and compute pipeline (its CoreSim)
        self.cpu = run.cores[self.host]
        self.dma = self.cpu.dma
        self.ops = ops
        #: per op: its completion event (a SYNC's is the release)
        self.events: list[Event | None] = [None] * len(ops)
        self.idx = 0
        self.epoch = 0
        #: when the current window stall or barrier wait began
        self.t_mark = 0.0
        #: ops before this index have all completed
        self.done = 0
        #: completions still awaited by :meth:`_drain`, and what follows
        self.pending = 0
        self.then: Callable[[], None] | None = None
        self.finished = False

    def start(self, _arg=None) -> None:
        self._walk(check_window=True)

    def _walk(self, check_window: bool) -> None:
        """Spawn ops from ``idx`` on, until the walk must wait."""
        ops, events, run = self.ops, self.events, self.run
        spawned = run.spawned
        idx, n_ops = self.idx, len(ops)
        while idx < n_ops:
            if check_window and idx >= _WINDOW:
                old = events[idx - _WINDOW]
                if old is not None and not old.triggered:
                    self.idx = idx
                    self.t_mark = run.sim.now
                    old.callbacks.append(self._unstall)
                    return
            check_window = True
            op = ops[idx]
            if op.kind is OpKind.SYNC:
                self.idx = idx
                self._drain(self._arrive)
                return
            events[idx] = op_run = _OpRun(self, op)
            spawned.append(op_run)
            if not run.dispatch_queued:
                run.queue_dispatch()
            idx += 1
        self.idx = idx
        self._drain(self._finish)

    def _drain(self, then: Callable[[], None]) -> None:
        """Call ``then()`` once every op before ``idx`` has completed."""
        events, done = self.events, self.done
        while done < self.idx and events[done].triggered:
            done += 1
        self.done = done
        pending = [e for e in events[done:self.idx] if not e.triggered]
        self.pending, self.then = len(pending), then
        for e in pending:
            e.callbacks.append(self._drained)
        if not pending:
            then()

    def _drained(self, _ev: Event) -> None:
        self.pending -= 1
        if not self.pending:
            self.then()

    def _unstall(self, _ev: Event) -> None:
        prof = self.run.prof
        if prof is not None:
            prof.add_window_stall(
                self.epoch, self.host, self.run.sim.now - self.t_mark
            )
        self._walk(check_window=False)

    def _arrive(self) -> None:
        run = self.run
        sid = self.ops[self.idx].sync_id
        self.t_mark = run.sim.now
        run.arrive(sid, self.core)
        run.released[sid].wait(self._synced)

    def _synced(self, released: Event) -> None:
        run = self.run
        op = self.ops[self.idx]
        now = run.sim.now
        if run.prof is not None:
            run.prof.add_sync_wait(self.epoch, self.host, now - self.t_mark)
        if run.tracer is not None and self.core == 0:
            run.tracer.record(
                op.tag or f"sync{op.sync_id}",
                category="sync",
                start_s=self.t_mark,
                end_s=now,
                track="cluster/sync",
                args={"sync_id": op.sync_id},
            )
        self.events[self.idx] = released
        self.epoch += 1
        self.idx += 1
        self._walk(check_window=True)

    def _finish(self) -> None:
        self.finished = True


class _OpRun(Event):
    """One DMA or KERNEL op in flight; fires when it completed.

    Spawned at the current time (so a walk spawns several ops "at once"),
    it starts at the instant's :meth:`_Run.dispatch`: it waits for its
    deps to fire, then requests the DMA engine or compute pipeline of its
    walk's ``host`` (at the dispatch of the instant the last dep fired);
    its spans and profile time go to that core.
    """

    __slots__ = ("walk", "op", "epoch", "pending", "t_start")

    def __init__(self, walk: _Walk, op) -> None:
        # Event.__init__, inline: one of these per op
        self.callbacks = []
        self.triggered = False
        self.name = ""
        self.walk = walk
        self.op = op
        self.epoch = walk.epoch

    def start(self) -> None:
        """Wait for the deps that have not completed, or request now."""
        events = self.walk.events
        pending = 0
        for d in self.op.deps:
            ev = events[d]
            if not ev.triggered:
                pending += 1
                ev.callbacks.append(self._dep_done)
        self.pending = pending
        if not pending:
            run = self.walk.run
            if run.faults is not None:
                run.faults.check_core_alive_timed(self.walk.host, run.sim.now)
            self.request()

    def _dep_done(self, _ev: Event) -> None:
        self.pending -= 1
        if not self.pending:
            run = self.walk.run
            if run.faults is not None:
                run.faults.check_core_alive_timed(self.walk.host, run.sim.now)
            run.ready.append(self)
            if not run.dispatch_queued:
                run.queue_dispatch()

    def request(self) -> None:
        walk = self.walk
        op = self.op
        if op.kind is OpKind.DMA:
            self.t_start = walk.run.sim.now
            walk.dma.issue(op.desc, self._dma_done)
        else:
            walk.cpu.run_kernel(op.cycles, self._kernel_done)

    def _dma_done(self, _arg) -> None:
        run = self.walk.run
        if run.prof is not None:
            desc = self.op.desc
            run.prof.add_dma(
                self.epoch, self.walk.host, self.t_start, run.sim.now,
                desc.medium_value, desc.nbytes,
            )
        self.succeed()

    def _kernel_done(self, _arg) -> None:
        run = self.walk.run
        if run.prof is not None or run.tracer is not None:
            op = self.op
            core = self.walk.host
            duration = op.cycles / run.clock
            if run.prof is not None:
                run.prof.add_compute(self.epoch, core, duration)
            if run.tracer is not None:
                now = run.sim.now
                run.tracer.record(
                    op.tag or "kernel",
                    category="kernel",
                    start_s=now - duration,
                    end_s=now,
                    track=f"core{core}/compute",
                    args={"core": core, "cycles": op.cycles,
                          "epoch": self.epoch},
                )
        self.succeed()


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
