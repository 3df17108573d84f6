"""The simulated-time serve trace and metrics, derived from a finished report.

Every simulated-time serve span and every ``serve/*`` count is a view of
a fact the :class:`~repro.serve.server.ServeReport` already holds, so
both are built from the report once the run is over
(:func:`serve_spans`, :func:`serve_metrics`).  The trace, the metrics
and the records cannot disagree: ``from_spans`` and ``critical_path``
read the same request and batch identities.  Spans written (pid 0 is the host, pid
``c + 1`` cluster ``c``): an ``admission`` instant per shed request; per
batch a ``coalesce`` and a ``dispatch`` instant and the ``batch`` span
with its tune → stage → retry → gemm children, a ``cold-tune`` instant
at the start of ``tune`` and one ``redispatch`` mark per failed attempt;
per request a ``request`` span with queue / batch-wait / compute
children on non-overlapping ``req-laneN`` tracks; ``degrade`` and
``placement`` instants from the report's event timelines.

Wall-clock scopes (``warmup``, GEMM scopes, DES spans) and the
gateway's own spans are recorded live, where their host time is spent,
as are the two gauges the report does not hold (``serve/queue/depth``
and ``serve/gateway/outstanding``).
"""

from __future__ import annotations

from collections import Counter

from ..errors import PlanError
from ..obs import current
from ..obs.trace import Tracer, current_tracer, head_sample
from .batcher import bucket_class
from .request import COMPLETED, SHED

#: shed reasons decided at admission; a ``shutdown`` shed was admitted
ADMISSION_SHEDS = ("queue_full", "class_shed", "burn_shed")

#: a batch's simulated segments, in the order the engine charges them
_SEGMENTS = (("tune", "tune_s"), ("stage", "stage_s"),
             ("retry", "lost_s"), ("gemm", "gemm_s"))


def serve_spans(report, tracer: Tracer | None = None, *,
                sample: float = 1.0) -> None:
    """Write the simulated-time serve trace of ``report`` to ``tracer``.

    ``tracer`` defaults to the ambient one (no-op with tracing off).
    Sampling is a property of the exported trace, not of the run:
    ``sample`` in [0, 1] head-samples clean completions by a hash of
    ``req_id`` (:func:`~repro.obs.trace.head_sample`), so a sampled
    trace replays identically; sheds, failures and SLO misses always
    keep their spans.
    """
    if not 0.0 <= sample <= 1.0:
        raise PlanError(f"trace sample must be in [0, 1], got {sample!r}")
    tracer = tracer if tracer is not None else current_tracer()
    if tracer is None:
        return

    def mark(name, at_s, category, track, args, pid=0, parent=None):
        tracer.instant(name, at_s=at_s, category=category, track=track,
                       pid=pid, parent=parent, args=args)

    for rec in report.records:
        if rec.status == SHED:
            args = {"req_id": rec.req_id, "klass": rec.klass,
                    "queue_cap": report.config.queue_cap,
                    "reason": rec.shed_reason}
            if rec.priority is not None:
                args["priority"] = rec.priority
            mark(f"shed req {rec.req_id}", rec.arrival_s, "admission",
                 "admission", args)
        elif rec.batch_id is None:
            mark(f"reject req {rec.req_id}", rec.arrival_s, "admission",
                 "admission", {"req_id": rec.req_id, "klass": rec.klass,
                               "error": rec.error})
    status = {r.req_id: r.status for r in report.records}
    for b in report.batches:
        pid, bid = b.cluster + 1, b.batch_id
        mark(f"coalesce b{bid}", b.close_s, "coalesce", "batcher",
             {"batch_id": bid, "reason": b.close_reason,
              "n_items": b.n_items, "stacked_m": b.stacked_m,
              "bucket": b.bucket})
        mark(f"dispatch b{bid}", b.start_s, "dispatch", "scheduler",
             {"batch_id": bid, "policy": report.policy,
              "cluster": b.cluster, "n_items": b.n_items})
        batch_sid = tracer.record(
            f"batch {bid} {b.bucket}", category="batch", start_s=b.start_s,
            end_s=b.finish_s, track="batch", pid=pid, parent=None,
            args={"batch_id": bid, "cluster": b.cluster,
                  "n_items": b.n_items, "stacked_m": b.stacked_m,
                  "close_reason": b.close_reason,
                  "redispatches": b.redispatches,
                  "ok": all(status[r] == COMPLETED for r in b.request_ids)},
        )
        t = b.start_s
        for seg, attr in _SEGMENTS:
            dur = getattr(b, attr)
            if dur <= 0.0:
                continue
            sid = tracer.record(
                seg, category=seg, start_s=t, end_s=t + dur, track="batch",
                pid=pid, parent=batch_sid, args={"batch_id": bid},
            )
            if seg == "tune":
                n, k, dtype = bucket_class(b.bucket)
                mark(f"cold-tune {n}x{k}/{dtype}", t, "tune", "scheduler",
                     {"n": n, "k": k, "dtype": dtype, "penalty_s": dur})
            elif seg == "retry":
                # one mark per failed dispatch attempt, spread evenly
                for i, err in enumerate(b.attempt_errors):
                    mark(f"re-dispatch #{i + 1}",
                         t + dur * (i + 1) / max(1, b.redispatches),
                         "redispatch", "batch",
                         {"batch_id": bid, "error": err},
                         pid=pid, parent=sid)
            t += dur
    _request_spans(tracer, report, sample)
    for e in report.degrade.events if report.degrade is not None else ():
        mark(f"{e.kind} cluster {e.cluster}", e.at_s, "degrade",
             "scheduler",
             {"cluster": e.cluster, "kind": e.kind, "detail": e.detail})
    for e in report.placement.events if report.placement is not None else ():
        to = f" -> cluster {e.cluster}" if e.cluster is not None else ""
        mark(f"{e.kind} {e.label}{to}", e.at_s, "placement", "placement",
             {"kind": e.kind, "bucket": e.label, "cluster": e.cluster,
              "detail": e.detail})


def _request_spans(tracer: Tracer, report, sample: float) -> None:
    """Request span trees, first-fit onto ``req-laneN`` display tracks."""
    by_id = {b.batch_id: b for b in report.batches}
    lanes: list[float] = []        # lane index -> last span end
    placed = [r for r in report.records if r.batch_id is not None]
    for rec in sorted(placed, key=lambda r: (r.arrival_s, r.req_id)):
        if (rec.status == COMPLETED and rec.deadline_met is not False
                and not head_sample(rec.req_id, sample)):
            continue
        b = by_id[rec.batch_id]
        lane = next((i for i, end in enumerate(lanes)
                     if end <= rec.arrival_s), len(lanes))
        if lane == len(lanes):
            lanes.append(0.0)
        lanes[lane] = b.finish_s
        track = f"req-lane{lane}"
        req_sid = tracer.record(
            f"req {rec.req_id} {rec.klass}", category="request",
            start_s=rec.arrival_s, end_s=b.finish_s, track=track, pid=0,
            parent=None,
            args={"req_id": rec.req_id, "klass": rec.klass,
                  "shape": rec.shape, "batch_id": b.batch_id,
                  "cluster": b.cluster, "status": rec.status},
        )
        for seg, s0, s1 in (("queue", rec.arrival_s, b.close_s),
                            ("batch-wait", b.close_s, b.start_s),
                            ("compute", b.start_s, b.finish_s)):
            tracer.record(
                seg, category=seg, start_s=s0, end_s=s1, track=track,
                pid=0, parent=req_sid,
                args={"req_id": rec.req_id, "batch_id": b.batch_id},
            )


def serve_metrics(report) -> None:
    """Count ``report`` into the ambient metrics registry (no-op when off).

    A counter is written only when it counts something, so a run
    without faults has no fault counters.  The ledger identities hold by
    construction: ``offered = completed + failed + shed`` and
    ``admitted = offered - (queue_full + class_shed + burn_shed sheds)
    - rejected``, a rejected request being one that failed admission's
    operand check.
    """
    m = current()
    if m is None:
        return

    def count(name: str, n: int) -> None:
        if n:
            m.counter(name).inc(n)

    reasons = Counter(r.shed_reason for r in report.records
                      if r.status == SHED)
    count("serve/requests/offered", report.n_requests)
    count("serve/requests/admitted", report.n_requests
          - sum(reasons[r] for r in ADMISSION_SHEDS) - report.rejected)
    count("serve/requests/shed", report.shed)
    count("serve/requests/completed", report.completed)
    count("serve/requests/failed", report.failed)
    count("serve/deadline/met", report.deadline_met)
    count("serve/deadline/missed", report.deadline_missed)
    count("serve/batches", len(report.batches))
    count("serve/redispatches", report.redispatches)
    count("serve/warmup/buckets", report.warmup.n_buckets)
    count("serve/tune/cold", sum(1 for b in report.batches if b.tune_s > 0))
    if report.degrade is not None:
        d = report.degrade
        count("serve/degrade/shed_class", d.shed_class)
        count("serve/degrade/shed_burn", d.shed_burn)
        count("serve/degrade/quarantines", d.quarantines)
        count("serve/degrade/probes", d.probes)
        count("serve/degrade/recoveries", d.recoveries)
    if report.placement is not None:
        p = report.placement
        count("serve/placement/promotions", p.promotions)
        count("serve/placement/demotions", p.demotions)
        count("serve/placement/hits", p.hits)
        count("serve/placement/restages", p.restages)
        count("serve/placement/staged_bytes", p.staged_bytes)
    by_id = {r.req_id: r for r in report.records}
    for b in report.batches:
        m.distribution("serve/batch/size").add(b.n_items)
        for rec in map(by_id.get, b.request_ids):
            if rec.status != COMPLETED:
                continue
            m.histogram("serve/latency/total_s").add(rec.latency_s)
            m.histogram("serve/latency/queue_s").add(rec.queue_s)
            m.histogram("serve/latency/batch_s").add(rec.batch_s)
            m.histogram("serve/latency/compute_s").add(rec.compute_s)
