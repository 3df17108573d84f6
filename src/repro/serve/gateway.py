"""Live asyncio serving gateway over the discrete-event serve engine.

:class:`Gateway` is the front door for *live* callers: ``await
gw.submit(request)`` admits a request into the same
batcher/scheduler/backends the replay path uses — streaming admission,
not a pre-drawn list — and resolves when the simulated backend finishes
it, with the same typed outcomes (:class:`~repro.serve.request
.RequestRecord` on completion, :class:`~repro.errors.OverloadError` on
shed, :class:`~repro.errors.InputError` for operands admission refused,
:class:`~repro.errors.FaultError` past the re-dispatch budget).

**Virtual-clock bridge.** The engine runs in simulated seconds; asyncio
runs in wall time.  The bridge never free-runs the simulation: a pump
callback (scheduled with ``loop.call_soon``, so it interleaves fairly
with caller coroutines) advances the DES exactly far enough to resolve
the *oldest outstanding await*, resolves every future whose record
appeared along the way, and re-schedules itself while awaits remain.
Callers therefore interleave deterministically with simulated compute:
the event heap orders same-instant events arrivals-first then by push
order, a rule independent of *when* an event was pushed, so a seeded
async driver produces records bit-identical to the equivalent pre-drawn
replay (:func:`gateway_replay` is that driver; the test suite and CI
gate hold it to the bit).

**No silent losses.** Every submitted request ends in the engine's
record table.  Closing the gateway without draining resolves still
in-flight awaits with ``OverloadError(reason="shutdown")`` — typed and
counted, never a bare ``CancelledError``.

**Observability.** :meth:`close` writes the serve spans and the
``serve/*`` metrics, both derived from the final report, as the replay
path does.  Only the ``serve/gateway/outstanding`` gauge is set live.
With tracing active the gateway adds ``submit`` / ``resolve`` instants
and one ``await`` span per request on its own track.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Iterable

import numpy as np

from ..core.shapes import GemmShape
from ..errors import FaultError, InputError, OverloadError, PlanError
from ..hw.config import MachineConfig, default_machine
from ..obs import current
from ..obs.trace import current_tracer
from .request import FAILED, SHED, GemmRequest, RequestRecord
from .scheduler import WarmupReport
from .server import (
    ServeConfig,
    ServeEngine,
    ServeReport,
    assemble_report,
    warm_engine,
)
from .spans import serve_metrics, serve_spans


class Gateway:
    """Asyncio front-end: live streaming admission over the serve engine.

        gw = Gateway(ServeConfig(policy="edf"))
        gw.warm(expected_requests)          # optional, replay-parity warmup
        record = await gw.submit(request)   # raises OverloadError on shed
        await gw.close()                    # drain; gw.report() afterwards

    Requests must be submitted in non-decreasing ``arrival_s`` order (the
    engine's streaming-admission contract); ``submit_gemm`` stamps
    arrivals from the gateway clock automatically.  Use it as an async
    context manager to get drain-on-exit.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        machine: MachineConfig | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.machine = machine or default_machine()
        self.engine = ServeEngine(self.config, self.machine)
        #: every warm() call so far, summed (what the report shows)
        self.warmup = WarmupReport()
        #: submit order of awaits still outstanding: req_id -> future
        self._waiters: dict[int, asyncio.Future] = {}
        self._inflight: dict[int, GemmRequest] = {}
        self._pump_scheduled = False
        self._closed = False
        self._next_req_id = 0
        #: most awaits ever outstanding at once, which the
        #: ``serve/gateway/outstanding`` gauge reports (1 = strict closed
        #: loop; a submit counts during its own admission)
        self._outstanding_high = 0
        #: live clock: auto-stamped arrivals never precede the last
        #: resolved response (a live caller reacts to what it has seen)
        self._live_now = 0.0

    # -- warmup ------------------------------------------------------------

    def warm(self, requests: list[GemmRequest]) -> WarmupReport:
        """Pre-tune the bucket classes an expected stream will hit.

        Identical to the replay path's warmup (same helper), which is
        what makes gateway timing bit-identical to :func:`serve` — cold
        tunes charge the same penalties on both paths.
        """
        if self._closed:
            raise PlanError("gateway is closed")
        report = warm_engine(self.engine, requests)
        self.warmup = WarmupReport(
            n_buckets=self.warmup.n_buckets + report.n_buckets,
            wall_s=self.warmup.wall_s + report.wall_s,
            keys=self.warmup.keys + report.keys,
        )
        return report

    # -- submission --------------------------------------------------------

    async def submit(self, req: GemmRequest) -> RequestRecord:
        """Admit one request; await its typed outcome.

        Returns the completed :class:`RequestRecord`; raises
        :class:`OverloadError` when the request was shed (admission
        queue, priority class, burn protection or gateway shutdown),
        :class:`InputError` when admission refused its operands and
        :class:`FaultError` when every re-dispatch attempt faulted.  The
        record always exists in :meth:`report` either way.
        """
        record = await self._submit(req)
        return self._raise_typed(record)

    async def submit_many(
        self, requests: Iterable[GemmRequest]
    ) -> list[RequestRecord]:
        """Admit a burst; return every record (shed/failed included).

        Unlike :meth:`submit` this never raises on per-request outcomes:
        sheds and faults come back as records with their typed error
        strings, in submission order.
        """
        futures = [self._offer(req) for req in requests]
        return list(await asyncio.gather(*futures))

    async def stream(
        self, requests: Iterable[GemmRequest]
    ) -> AsyncIterator[RequestRecord]:
        """Yield each request's record as it resolves, in submit order."""
        futures = [self._offer(req) for req in requests]
        for fut in futures:
            yield await fut

    async def submit_gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        c: np.ndarray | None = None,
        klass: str = "adhoc",
        deadline_budget_s: float | None = None,
        priority: str | None = None,
        arrival_s: float | None = None,
    ) -> RequestRecord:
        """Build, stamp and submit one GEMM; await its typed outcome.

        ``arrival_s`` defaults to the gateway clock (never earlier than
        the last submission or the last resolved response);
        ``deadline_budget_s`` is a latency budget from that arrival.
        """
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise PlanError(
                f"submit_gemm needs 2-D operands with a.shape[1] == "
                f"b.shape[0], got {a.shape} x {b.shape}"
            )
        at = arrival_s
        if at is None:
            at = max(self.engine.last_arrival_s, self._live_now)
        req = GemmRequest(
            req_id=self._next_req_id,
            arrival_s=at,
            shape=GemmShape(a.shape[0], b.shape[1], a.shape[1]),
            a=a,
            b=b,
            c=c if c is not None else np.zeros(
                (a.shape[0], b.shape[1]), dtype=a.dtype
            ),
            klass=klass,
            deadline_s=(
                at + deadline_budget_s
                if deadline_budget_s is not None else None
            ),
            priority=priority,
        )
        record = await self._submit(req)
        return self._raise_typed(record)

    async def _submit(self, req: GemmRequest) -> RequestRecord:
        return await self._offer(req)

    def _offer(self, req: GemmRequest) -> "asyncio.Future[RequestRecord]":
        """Synchronously admit ``req``; return the future of its record.

        The offer happens *before* any await point, so a driver that
        creates submit tasks in arrival order admits in arrival order —
        the determinism contract callers rely on.
        """
        if self._closed:
            raise PlanError("gateway is closed")
        if self._next_req_id <= req.req_id:
            self._next_req_id = req.req_id + 1
        # the request being admitted is in flight during its own offer —
        # counted even when a full bucket resolves it synchronously, so
        # the stat reports the backpressure the driver exerted
        inflight = len(self._waiters) + 1
        metrics = current()
        if inflight > self._outstanding_high:
            self._outstanding_high = inflight
            if metrics is not None:
                metrics.gauge("serve/gateway/outstanding").set(inflight)
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                f"submit req {req.req_id}",
                at_s=req.arrival_s,
                category="gateway",
                track="gateway",
                pid=0,
                args={"req_id": req.req_id, "klass": req.klass,
                      "shape": str(req.shape)},
            )
        self.engine.offer(req)
        loop = asyncio.get_running_loop()
        fut: asyncio.Future[RequestRecord] = loop.create_future()
        record = self.engine.records.get(req.req_id)
        if record is not None:
            # a full bucket (or a shed) resolved synchronously
            self._resolve(req.req_id, fut, record)
            return fut
        self._waiters[req.req_id] = fut
        self._inflight[req.req_id] = req
        self._schedule_pump(loop)
        return fut

    # -- the virtual-clock bridge ------------------------------------------

    def _schedule_pump(self, loop: asyncio.AbstractEventLoop) -> None:
        if not self._pump_scheduled:
            self._pump_scheduled = True
            loop.call_soon(self._pump)

    def _pump(self) -> None:
        """Advance the DES as far as the oldest outstanding await needs."""
        self._pump_scheduled = False
        if self._closed or not self._waiters:
            return
        self.engine.advance_until(next(iter(self._waiters)))
        for rid in [r for r in self._waiters if self.engine.resolved(r)]:
            fut = self._waiters.pop(rid)
            self._inflight.pop(rid, None)
            self._resolve(rid, fut, self.engine.records[rid])
        if self._waiters:
            self._schedule_pump(asyncio.get_running_loop())

    def _resolve(
        self, req_id: int, fut: "asyncio.Future[RequestRecord]",
        record: RequestRecord,
    ) -> None:
        end = record.finish_s
        if end is None:
            end = max(self.engine.now_s, record.arrival_s)
        self._live_now = max(self._live_now, end)
        tracer = current_tracer()
        if tracer is not None:
            tracer.record(
                f"await req {req_id}",
                category="gateway",
                start_s=record.arrival_s,
                end_s=end,
                track="gateway",
                pid=0,
                args={"req_id": req_id, "status": record.status,
                      "error": record.error},
            )
            tracer.instant(
                f"resolve req {req_id}",
                at_s=end,
                category="gateway",
                track="gateway",
                pid=0,
                args={"req_id": req_id, "status": record.status},
            )
        if not fut.done():
            fut.set_result(record)

    def _raise_typed(self, record: RequestRecord) -> RequestRecord:
        if record.status == SHED:
            raise OverloadError(
                record.req_id,
                self.config.queue_cap,
                reason=record.shed_reason or "queue_full",
            ) from None
        if record.status == FAILED:
            # a record that never reached a batch failed admission's
            # operand check; one that did ran out of re-dispatches
            error = InputError if record.batch_id is None else FaultError
            raise error(
                f"request {record.req_id} failed: {record.error}"
            ) from None
        return record

    # -- introspection -----------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Submitted awaits not yet resolved."""
        return len(self._waiters)

    @property
    def now_s(self) -> float:
        """The bridge's virtual clock (simulated seconds)."""
        return max(self.engine.now_s, self._live_now)

    def report(self) -> ServeReport:
        """The serve report over everything resolved so far."""
        return assemble_report(self.engine, self.warmup)

    # -- teardown ----------------------------------------------------------

    async def close(self, *, drain: bool = True) -> None:
        """Shut the gateway down; idempotent.

        ``drain=True`` (default) runs the engine to completion first so
        every outstanding await resolves with its real outcome.
        ``drain=False`` abandons in-flight work: each outstanding await
        resolves with a shed record — ``OverloadError(reason=
        "shutdown")`` for :meth:`submit` callers — typed and counted,
        never silently cancelled.
        """
        if self._closed:
            return
        if drain:
            self.engine.finish()
        else:
            for rid, req in list(self._inflight.items()):
                if not self.engine.resolved(rid):
                    self.engine._shed(
                        req, self.engine.now_s, "shutdown",
                        self.config.degrade.classify(req)
                        if self.config.degrade is not None else None,
                    )
            self.engine._finished = True
        for rid in list(self._waiters):
            fut = self._waiters.pop(rid)
            self._inflight.pop(rid, None)
            record = self.engine.records.get(rid)
            if record is None:  # pragma: no cover - contract guard
                fut.set_exception(PlanError(
                    f"request {rid} lost at shutdown — contract violation"
                ))
                continue
            self._resolve(rid, fut, record)
        self._closed = True
        report = self.report()
        serve_spans(report)
        serve_metrics(report)

    async def __aenter__(self) -> "Gateway":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(drain=exc_type is None)


def gateway_replay(
    requests: list[GemmRequest],
    config: ServeConfig | None = None,
    *,
    machine: MachineConfig | None = None,
) -> ServeReport:
    """Drive a pre-drawn stream through the live gateway; return its report.

    The equivalence driver behind the determinism contract: one submit
    task per request, created in arrival order (offers are synchronous
    up to the first await, so admission order equals replay order), all
    gathered concurrently while the pump advances the bridge clock.  The
    resulting records are bit-identical to ``serve(requests, config)``
    — asserted by the test suite and the CI claims gate, not just here.
    """
    config = config or ServeConfig()
    if not requests:
        raise PlanError("empty request stream")
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))

    async def drive() -> ServeReport:
        gw = Gateway(config, machine=machine)
        gw.warm(ordered)
        tasks = [
            asyncio.ensure_future(gw.submit(req)) for req in ordered
        ]
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        for out in outcomes:
            if isinstance(out, BaseException) and not isinstance(
                out, (OverloadError, InputError, FaultError)
            ):
                raise out  # anything untyped is a contract violation
        await gw.close()
        report = gw.report()
        if len(report.records) != len(ordered):  # pragma: no cover - guard
            raise PlanError("a gateway request was dropped silently")
        return report

    return asyncio.run(drive())
