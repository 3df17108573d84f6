"""The live asyncio gateway: streaming admission over the serve engine.

The contracts under test are the ISSUE's acceptance bar:

* a seeded async driver produces records **bit-identical** to the
  equivalent pre-drawn replay — same shapes, arrivals, sheds and faults
  (the virtual-clock bridge and the arrivals-first heap rule);
* every gateway loss is *typed* (`OverloadError` / `FaultError`), never
  silent — including futures outstanding at shutdown;
* the gateway's private metrics fold into the ambient registry without
  double-counting, no matter how many in-flight snapshots happen;
* warmup tunes every bucket class at its expected stacked M.
"""

import asyncio
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from repro.analysis import critical_path, diff_critical_paths
from repro.core.ftimm import ftimm_gemm
from repro.errors import FaultError, OverloadError, PlanError
from repro.faults.plan import FaultPlan
from repro.obs import MetricsRegistry, collecting, tracing
from repro.serve import (
    DegradePolicy,
    Gateway,
    GemmRequest,
    ServeConfig,
    gateway_replay,
    make_requests,
    serve,
)
from repro.serve.request import COMPLETED, SHED

from test_serve import fast_requests


def _chaos_config(**kw):
    """Overload + degradation + one sick cluster: the hardest replay."""
    base = dict(
        policy="least_loaded",
        queue_cap=8,
        degrade=DegradePolicy(),
        faults=FaultPlan(seed=7, bitflip_rate=0.6, max_kernel_retries=0),
        cluster_fault_scale=(1.0, 0.0, 0.0, 0.0),
        max_redispatch=1,
    )
    base.update(kw)
    return ServeConfig(**base)


class TestBitIdentity:
    @pytest.mark.parametrize("policy", ["fifo", "least_loaded", "edf"])
    def test_gateway_matches_replay(self, policy):
        config = ServeConfig(policy=policy)
        replay = serve(fast_requests(), config)
        live = gateway_replay(fast_requests(), config)
        assert live.records == replay.records
        assert live.batches == replay.batches
        assert live.makespan_s == replay.makespan_s

    def test_shed_parity_under_overload(self):
        config = _chaos_config()
        reqs = make_requests(
            "transformer", rate_rps=400000, n_requests=60, seed=3
        )
        replay = serve(reqs, config)
        live = gateway_replay(make_requests(
            "transformer", rate_rps=400000, n_requests=60, seed=3
        ), config)
        assert replay.shed > 0  # the scenario actually sheds
        assert live.records == replay.records
        d_a, d_b = replay.degrade, live.degrade
        assert (d_a.shed_queue_full, d_a.shed_class, d_a.shed_burn) == (
            d_b.shed_queue_full, d_b.shed_class, d_b.shed_burn
        )
        assert d_a.peak_burn == d_b.peak_burn

    def test_edf_quarantine_parity(self):
        config = _chaos_config(
            policy="edf",
            faults=FaultPlan(seed=9, bitflip_rate=0.8, max_kernel_retries=0),
        )
        reqs = lambda: make_requests(  # noqa: E731
            "transformer", rate_rps=300000, n_requests=48, seed=5
        )
        assert gateway_replay(reqs(), config).records == \
            serve(reqs(), config).records

    def test_gateway_run_is_replayable(self):
        config = ServeConfig(policy="edf")
        a = gateway_replay(fast_requests(seed=2), config)
        b = gateway_replay(fast_requests(seed=2), config)
        assert a.records == b.records


class TestTypedOutcomes:
    def test_submit_raises_typed_overload(self):
        config = ServeConfig(queue_cap=1, max_batch=64, max_wait_s=1.0)
        reqs = fast_requests(n=8, rate=1e6)

        async def drive():
            gw = Gateway(config)
            outcomes = await asyncio.gather(
                *[gw.submit(r) for r in reqs], return_exceptions=True
            )
            await gw.close()
            return gw, outcomes

        gw, outcomes = asyncio.run(drive())
        sheds = [o for o in outcomes if isinstance(o, OverloadError)]
        assert sheds and all(o.reason == "queue_full" for o in sheds)
        # every loss is in the record table too — nothing silent
        assert len(gw.report().records) == len(reqs)
        assert gw.report().shed == len(sheds)

    def test_submit_raises_typed_fault(self):
        config = ServeConfig(
            faults=FaultPlan(seed=1, bitflip_rate=1.0, max_kernel_retries=0),
            max_redispatch=0,
        )

        async def drive():
            async with Gateway(config) as gw:
                with pytest.raises(FaultError, match="failed"):
                    await gw.submit(fast_requests(n=1)[0])
                return gw.report()

        report = asyncio.run(drive())
        assert report.failed == len(report.records) == 1
        assert report.records[0].error

    def test_submit_many_returns_records_not_raises(self):
        config = _chaos_config()
        reqs = make_requests(
            "transformer", rate_rps=400000, n_requests=40, seed=3
        )

        async def drive():
            async with Gateway(config) as gw:
                return await gw.submit_many(reqs)

        records = asyncio.run(drive())
        assert [r.req_id for r in records] == [r.req_id for r in reqs]
        assert any(r.status == SHED for r in records)
        assert all(
            r.error for r in records if r.status != COMPLETED
        )

    def test_stream_yields_in_submit_order(self):
        async def drive():
            async with Gateway(ServeConfig()) as gw:
                got = []
                async for rec in gw.stream(fast_requests(n=6)):
                    got.append(rec.req_id)
                return got

        assert asyncio.run(drive()) == [0, 1, 2, 3, 4, 5]


class TestShutdown:
    def test_undrained_close_is_typed_never_silent(self):
        # huge max-wait: requests sit in open buckets when we close
        config = ServeConfig(max_wait_s=10.0, max_batch=64)
        reqs = fast_requests(n=4)

        async def drive():
            gw = Gateway(config)
            tasks = [asyncio.ensure_future(gw.submit(r)) for r in reqs]
            await asyncio.sleep(0)          # offers happen, nothing resolves
            assert gw.outstanding == len(reqs)
            await gw.close(drain=False)
            return gw, await asyncio.gather(*tasks, return_exceptions=True)

        gw, outcomes = asyncio.run(drive())
        assert all(isinstance(o, OverloadError) for o in outcomes)
        assert all(o.reason == "shutdown" for o in outcomes)
        report = gw.report()
        assert len(report.records) == len(reqs)     # no silent loss
        assert all(r.shed_reason == "shutdown" for r in report.records)

    def test_undrained_close_keeps_the_ledger(self):
        """Shutdown sheds were admitted: the documented identities hold."""
        reqs = make_requests("overload", rate_rps=120_000, n_requests=40,
                             seed=3)

        async def drive():
            gw = Gateway(ServeConfig(max_wait_s=1.0, max_batch=64))
            futures = [gw._offer(r) for r in reqs]
            await gw.close(drain=False)
            await asyncio.gather(*futures)
            return gw.report()

        with collecting() as reg:
            report = asyncio.run(drive())
        count = {name: reg.counter(name).value
                 for name in reg.names("serve/requests/")}
        assert count["serve/requests/shed"] == report.shed == 40
        assert "serve/requests/completed" not in count
        assert count["serve/requests/offered"] == (
            report.completed + report.failed + report.shed
        )
        admission = sum(r.shed_reason in ("queue_full", "class_shed",
                                          "burn_shed")
                        for r in report.records)
        assert count["serve/requests/admitted"] == (
            count["serve/requests/offered"] - admission
        ) == 40

    def test_drained_close_resolves_everything(self):
        config = ServeConfig(max_wait_s=10.0, max_batch=64)
        reqs = fast_requests(n=4)

        async def drive():
            gw = Gateway(config)
            tasks = [asyncio.ensure_future(gw.submit(r)) for r in reqs]
            await asyncio.sleep(0)
            await gw.close(drain=True)
            return await asyncio.gather(*tasks)

        records = asyncio.run(drive())
        assert all(r.status == COMPLETED for r in records)

    def test_close_is_idempotent_and_submit_after_close_raises(self):
        async def drive():
            gw = Gateway(ServeConfig())
            await gw.submit(fast_requests(n=1)[0])
            await gw.close()
            await gw.close()
            with pytest.raises(PlanError, match="closed"):
                await gw.submit(fast_requests(n=2)[1])

        asyncio.run(drive())


class TestLiveSubmission:
    def test_closed_loop_caller_is_deterministic(self):
        """await-between-submits is a different workload than the open
        loop (the engine advances past would-be coalescing windows), but
        it must still be deterministic and fully typed."""
        config = ServeConfig()

        def run():
            async def drive():
                async with Gateway(config) as gw:
                    out = []
                    for req in fast_requests(n=8):
                        rec = await gw.submit(dc_replace(req))
                        out.append(rec)
                    return out
            return asyncio.run(drive())

        a, b = run(), run()
        assert a == b
        assert all(r.status == COMPLETED for r in a)

    def test_submit_gemm_stamps_arrivals_and_computes(self):
        rng = np.random.default_rng(0)

        a = rng.standard_normal((32, 16)).astype(np.float32)
        b = rng.standard_normal((16, 24)).astype(np.float32)
        c = np.zeros((32, 24), dtype=np.float32)

        async def drive():
            async with Gateway(ServeConfig()) as gw:
                rec = await gw.submit_gemm(a, b, c=c, deadline_budget_s=1.0)
                # live clock: the next auto-stamped arrival never
                # precedes the resolved response
                rec2 = await gw.submit_gemm(a, b)
                return rec, rec2

        rec, rec2 = asyncio.run(drive())
        assert rec.status == COMPLETED
        ref = np.zeros_like(c)
        ftimm_gemm(32, 24, 16, a=a, b=b, c=ref, timing="none")
        assert np.array_equal(c, ref)
        assert rec2.arrival_s >= rec.finish_s
        assert rec.deadline_met is True

    def test_submit_gemm_rejects_bad_operands(self):
        async def drive():
            async with Gateway(ServeConfig()) as gw:
                with pytest.raises(PlanError, match="2-D"):
                    await gw.submit_gemm(
                        np.zeros((4, 4), np.float32),
                        np.zeros((5, 4), np.float32),
                    )

        asyncio.run(drive())


class TestMetricsMerge:
    def test_inflight_snapshots_never_double_count(self):
        config = ServeConfig()
        reqs = fast_requests()

        # ground truth: the replay path under one ambient registry
        with collecting() as want:
            serve(fast_requests(), config)

        async def drive(gw):
            tasks = [asyncio.ensure_future(gw.submit(r)) for r in reqs]
            await asyncio.sleep(0)
            await asyncio.gather(*tasks)
            await gw.close()

        with collecting() as got:
            gw = Gateway(config)
            gw.warm(reqs)
            asyncio.run(drive(gw))

        for name in want.names():
            if name.startswith("serve/"):
                assert name in got
                w = want.snapshot()[name]
                g = got.snapshot()[name]
                if w["type"] in ("counter", "histogram", "distribution"):
                    assert g["count" if "count" in w else "value"] == \
                        w["count" if "count" in w else "value"], name
                if w["type"] == "histogram":
                    assert g["counts"] == w["counts"], name
                    assert g["total"] == w["total"], name

    def test_every_warm_call_is_reported(self):
        """Two warm() calls: the report (and its metric) keeps both."""
        reqs = fast_requests(n=12)

        async def drive():
            gw = Gateway(ServeConfig())
            gw.warm([r for r in reqs if r.klass == "tiny"])
            gw.warm(reqs)
            await gw.submit_many(reqs)
            await gw.close()
            return gw.report()

        with collecting() as reg:
            report = asyncio.run(drive())
        assert report.warmup.n_buckets == len(report.warmup.keys) == 2
        assert reg.counter("serve/warmup/buckets").value == 2
        assert "serve/tune/cold" not in reg

    def test_gateway_counters(self):
        """The gateway's counts are the report's; only the gauge is its own."""
        with collecting() as reg:
            gateway_replay(fast_requests(n=6), ServeConfig())
        snap = reg.snapshot()
        assert snap["serve/requests/offered"]["value"] == 6
        assert reg.names("serve/gateway/") == ["serve/gateway/outstanding"]


class TestGatewayTrace:
    def test_gateway_spans_emitted(self):
        reqs = fast_requests(n=6)

        async def drive():
            async with Gateway(ServeConfig()) as gw:
                await gw.submit_many(reqs)

        with tracing() as tracer:
            asyncio.run(drive())
        cats = {s.category for s in tracer.spans}
        assert "gateway" in cats
        names = [s.name for s in tracer.spans if s.category == "gateway"]
        assert any(n.startswith("submit req") for n in names)
        assert any(n.startswith("await req") for n in names)
        assert any(n.startswith("resolve req") for n in names)
        awaits = [s for s in tracer.spans
                  if s.category == "gateway" and s.name.startswith("await")]
        assert len(awaits) == len(reqs)
        assert all(s.end_s >= s.start_s for s in awaits)

    def test_tracing_never_changes_records(self):
        config = ServeConfig(policy="edf")
        plain = gateway_replay(fast_requests(seed=4), config)
        with tracing():
            traced = gateway_replay(fast_requests(seed=4), config)
        assert plain.records == traced.records


class TestStackHints:
    def test_config_rejects_bogus_hints_mode(self):
        # warmup has one mode: the old hint and tuner knobs are gone
        with pytest.raises(TypeError, match="stack_hints"):
            ServeConfig(stack_hints="bogus")
        with pytest.raises(TypeError, match="warmup_tune"):
            ServeConfig(warmup_tune="search")

    @pytest.mark.parametrize("field, value", [
        ("timing", "des"), ("n_clusters", 99), ("cold_tune_s", 1e-3),
        ("replica_budget_bytes", 1 << 20), ("max_replicas", 2),
        ("promote_after", 1),
    ])
    def test_removed_knobs_rejected(self, field, value):
        # derived from the machine or fixed as module constants
        # (scheduler.COLD_TUNE_S, placement.REPLICA_BUDGET_BYTES, ...)
        with pytest.raises(TypeError, match=field):
            ServeConfig(**{field: value})


class TestTraceDiff:
    def _reports(self):
        slow = ServeConfig(max_wait_s=2e-3)
        fast = ServeConfig(max_wait_s=1e-4)
        a = serve(fast_requests(n=32), slow)
        b = serve(fast_requests(n=32), fast)
        return (
            critical_path(a.records, a.batches),
            critical_path(b.records, b.batches),
        )

    def test_diff_shows_queue_shrinking(self):
        cp_a, cp_b = self._reports()
        diff = diff_critical_paths(cp_a, cp_b)
        assert diff.quantiles == (0.50, 0.99)
        # a 20x smaller max-wait must shrink the queue segment's tail
        assert diff.delta(0.99)["queue"] < 0
        assert "queue" in diff.render()
        assert diff.to_dict()["verdict"] == diff.verdict()

    def test_diff_of_identical_runs_is_zero(self):
        cp_a, _ = self._reports()
        diff = diff_critical_paths(cp_a, cp_a)
        for q in diff.quantiles:
            assert all(v == 0.0 for v in diff.delta(q).values())
        assert "unchanged" in diff.verdict()

    def test_diff_validates_quantiles(self):
        cp_a, cp_b = self._reports()
        with pytest.raises(Exception, match="quantile"):
            diff_critical_paths(cp_a, cp_b, quantiles=(1.5,))
        with pytest.raises(Exception, match="at least one"):
            diff_critical_paths(cp_a, cp_b, quantiles=())


class TestClosedLoop:
    """Closed-loop characterization: windowed live drivers (ROADMAP).

    A closed-loop driver keeps a fixed window of awaits in flight and
    submits the next request only when one resolves — the natural live
    workload the gateway exists for.  Contracts: the run is bit-identical
    per seed (the arrivals-first heap rule does not care that arrivals
    are reactive), throughput is monotone in the window size until
    saturation, and the ``serve/gateway/outstanding`` gauge's high-water
    mark reports exactly the backpressure the driver exerted.
    """

    N_REQUESTS = 32

    @staticmethod
    def _operands(seed, n):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        return [
            rng.standard_normal((8 + 4 * (i % 3), 48)).astype(np.float32)
            for i in range(n)
        ], b

    def _drive(self, window, seed=0):
        """Run a windowed closed loop; return (records, report, gateway)."""
        a_list, b = self._operands(seed, self.N_REQUESTS)

        async def go():
            # max_batch above the widest window: buckets close by
            # max-wait, not by filling, so no submit resolves
            # synchronously and the high-water stat is exactly the
            # driver's window
            gw = Gateway(ServeConfig(
                policy="least_loaded", warmup=False, max_batch=24,
            ))
            records = []
            for lo in range(0, self.N_REQUESTS, window):
                wave = [
                    gw.submit_gemm(a, b, klass="closed")
                    for a in a_list[lo:lo + window]
                ]
                records.extend(await asyncio.gather(*wave))
            await gw.close()
            return records, gw.report(), gw

        return asyncio.run(go())

    @pytest.mark.parametrize("window", [1, 4, 16])
    def test_deterministic_per_seed(self, window):
        first, report_a, _ = self._drive(window)
        second, report_b, _ = self._drive(window)
        assert first == second
        assert report_a.records == report_b.records
        assert all(r.status == COMPLETED for r in first)

    def test_goodput_monotone_in_concurrency(self):
        rates = {}
        for window in (1, 4, 16):
            _, report, _ = self._drive(window)
            assert report.completed == self.N_REQUESTS
            rates[window] = report.completed_rps
        # wider windows overlap cluster use and coalesce deeper stacks;
        # completed-throughput must not degrade as the window grows
        assert rates[1] <= rates[4] <= rates[16]
        assert rates[16] > rates[1]

    @pytest.mark.parametrize("window", [1, 4, 16])
    def test_outstanding_high_water_reports_backpressure(self, window):
        with collecting() as reg:
            _, _, gw = self._drive(window)
        assert reg.snapshot()["serve/gateway/outstanding"]["high"] == window
        assert gw.outstanding == 0  # drained at close

    def test_outstanding_gauge_exported(self):
        with collecting() as reg:
            _, _, gw = self._drive(4)
        snap = reg.snapshot()
        gauge = snap.get("serve/gateway/outstanding")
        assert gauge is not None
        assert gauge["high"] == 4
