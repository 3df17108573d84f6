"""Serve admission checks each request's operands once.

A request with a NaN/Inf in A or B, or an operand that is not float32,
becomes one ``failed`` record typed ``InputError`` at its arrival
instant; the rest of the session is served as if it were absent from
the batches.  Behind the check: B's finiteness is read once per distinct
B content (the intern entry keeps it), and a batch tunes and lowers each
distinct member shape once.
"""

import asyncio
import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.core import batched
from repro.core.ftimm import ftimm_gemm
from repro.errors import InputError
from repro.obs import collecting, tracing
from repro.serve import Gateway, ServeConfig, make_requests, serve
from repro.serve.gateway import gateway_replay
from repro.serve.request import COMPLETED, FAILED, SHED

#: request index -> how the test spoils it
SPOILED = {5: "nan_a", 11: "inf_b", 17: "f64_a"}


def _spoil(req, how):
    if how == "nan_a":
        a = req.a.copy()
        a[0, 0] = np.nan
        return replace(req, a=a)
    if how == "inf_b":
        b = req.b.copy()
        b[-1, -1] = -np.inf
        return replace(req, b=b)
    return replace(req, a=req.a.astype(np.float64))


def _stream():
    reqs = make_requests("overload", rate_rps=120_000, n_requests=40,
                         seed=42)
    for i, how in SPOILED.items():
        reqs[i] = _spoil(reqs[i], how)
    return reqs


def _summary(report):
    return [(r.req_id, r.status, r.error, r.finish_s, r.batch_id)
            for r in report.records]


class TestBadOperands:
    def test_each_bad_request_is_one_typed_failed_record(self):
        reqs = _stream()
        pristine = copy.deepcopy(reqs)
        report = serve(reqs, ServeConfig(policy="edf", queue_cap=256))

        bad_ids = {reqs[i].req_id for i in SPOILED}
        by_id = {r.req_id: r for r in report.records}
        for rid in bad_ids:
            rec = by_id[rid]
            assert rec.status == FAILED
            assert rec.error.startswith("InputError: ")
            assert rec.batch_id is None and rec.finish_s is None
        assert {r.req_id for r in report.records
                if r.status == FAILED} == bad_ids
        assert report.rejected == len(bad_ids)
        assert report.completed + report.shed + report.failed == len(reqs)
        assert not any(rid in b.request_ids for b in report.batches
                       for rid in bad_ids)

        # every other completed C holds standalone ftimm_gemm bits
        pristine_by_id = {p.req_id: p for p in pristine}
        served_by_id = {r.req_id: r for r in reqs}
        completed = 0
        for rec in report.records:
            if rec.status != COMPLETED:
                continue
            p = pristine_by_id[rec.req_id]
            ref = p.c.copy()
            ftimm_gemm(p.shape.m, p.shape.n, p.shape.k, a=p.a, b=p.b,
                       c=ref, timing="none")
            assert np.array_equal(served_by_id[rec.req_id].c, ref)
            completed += 1
        assert completed == len(reqs) - len(bad_ids)
        # a refused request's C is never written
        for rid in bad_ids:
            assert np.array_equal(served_by_id[rid].c, pristine_by_id[rid].c)

    def test_errors_name_the_operand_in_records_trace_and_metrics(self):
        with collecting() as reg, tracing() as tracer:
            report = serve(_stream(),
                           ServeConfig(policy="edf", queue_cap=256))
        errors = {r.error for r in report.records if r.status == FAILED}
        assert errors == {
            "InputError: A contains NaN or Inf entries",
            "InputError: B contains NaN or Inf entries",
            "InputError: A must be float32, got float64",
        }
        rejects = {s.args["error"] for s in tracer.spans
                   if s.name.startswith("reject req")}
        assert rejects == errors
        assert reg.counter("serve/requests/failed").value == len(SPOILED)
        assert reg.counter("serve/requests/admitted").value == (
            40 - len(SPOILED)
        )

    def test_a_shed_request_is_not_checked(self):
        # the shed decision comes first: a full queue sheds a bad request
        reqs = _stream()
        report = serve(reqs, ServeConfig(policy="edf", queue_cap=1))
        by_id = {r.req_id: r for r in report.records}
        statuses = {by_id[reqs[i].req_id].status for i in SPOILED}
        assert statuses <= {SHED, FAILED}
        assert report.completed + report.shed + report.failed == len(reqs)

    def test_gateway_replay_gives_the_same_records(self):
        config = ServeConfig(policy="edf", queue_cap=256)
        replayed = serve(_stream(), config)
        live = gateway_replay(_stream(), config)
        assert _summary(live) == _summary(replayed)
        assert live.latency_table() == replayed.latency_table()

    def test_gateway_submit_raises_input_error(self):
        reqs = _stream()

        async def drive():
            gw = Gateway(ServeConfig(policy="edf"))
            with pytest.raises(InputError, match="NaN or Inf"):
                await gw.submit(reqs[5])
            await gw.close()
            return gw.report()

        report = asyncio.run(drive())
        assert [r.status for r in report.records] == [FAILED]

    def test_unsupported_dtype_is_an_input_error(self):
        reqs = make_requests("overload", rate_rps=120_000, n_requests=8,
                             seed=42)
        reqs[3] = replace(reqs[3], c=reqs[3].c.astype(np.int32))
        report = serve(reqs, ServeConfig(policy="edf"))
        rec = next(r for r in report.records if r.req_id == reqs[3].req_id)
        assert rec.status == FAILED
        assert rec.error == "InputError: unsupported operand dtype 'int32'"


class TestCheckedOnce:
    def test_b_read_once_per_content_and_plans_once_per_batch_shape(self):
        requests = make_requests("overload", rate_rps=120_000,
                                 n_requests=150, seed=42)
        config = ServeConfig(policy="edf", queue_cap=256)
        batched.clear_interned()
        with collecting() as cold:
            report = serve(copy.deepcopy(requests), config)
        digests = {b.bucket.rsplit("/", 1)[1] for b in report.batches}
        reads = cold.counter("core/batched/b_intern/finite_reads").value
        assert 0 < reads == len(digests)

        # a warm pass: every B is a bit-equal copy of an interned one
        with collecting() as warm:
            report = serve(copy.deepcopy(requests), config)
        assert warm.counter("core/batched/b_intern/finite_reads").value == 0
        assert warm.counter("core/batched/b_intern/hits").value == 150

        shapes = {r.req_id: r.shape for r in requests}
        member_shapes = sum(
            len({shapes[rid] for rid in b.request_ids})
            for b in report.batches
        )
        assert member_shapes < report.completed  # some batches repeat one
        lowered = (warm.counter("core/lowering/hits").value
                   + warm.counter("core/lowering/misses").value)
        assert lowered == member_shapes
        # one tune per distinct member shape per batch, one for each
        # batch's stacked charge, one per warmed bucket class
        assert warm.counter("tuner/decisions").value == (
            member_shapes + len(report.batches) + report.warmup.n_buckets
        )


class TestBFinite:
    @pytest.fixture(autouse=True)
    def empty_table(self):
        batched.clear_interned()
        yield
        batched.clear_interned()

    @staticmethod
    def b(seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((256, 64)).astype(np.float32)

    @staticmethod
    def finite(b) -> tuple[bool, int]:
        with collecting() as reg:
            answer = batched.b_finite(b, batched.b_digest(b))
        return answer, reg.counter("core/batched/b_intern/finite_reads").value

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_b(self, value):
        b = self.b()
        b[7, 9] = value
        assert self.finite(b) == (False, 1)

    def test_finite_b(self):
        assert self.finite(self.b()) == (True, 1)

    def test_bit_equal_copy_inherits_without_a_read(self):
        b = self.b()
        b[3, 5] = np.nan
        assert self.finite(b) == (False, 1)
        assert self.finite(b.copy()) == (False, 0)

    def test_one_bit_different_b_has_its_own_entry(self):
        b1 = self.b()
        b1[1, 1] = np.finfo(np.float32).max
        b2 = b1.copy()
        # the largest float32 plus one in its last bit is inf; (1, 1) is
        # off the fingerprint grid, so both land under one intern key
        b2.view(np.uint32)[1, 1] += 1
        assert b2[1, 1] == np.inf
        assert batched._fingerprint(b1) == batched._fingerprint(b2)
        assert self.finite(b1) == (True, 1)
        assert self.finite(b2) == (False, 1)
        assert self.finite(b1.copy()) == (True, 0)
        assert self.finite(b2.copy()) == (False, 0)

    def test_b_too_large_to_intern_is_read_each_time(self, monkeypatch):
        b = self.b()
        monkeypatch.setattr(batched, "_INTERN_BYTES", b.nbytes - 1)
        assert self.finite(b) == (True, 1)
        assert self.finite(b.copy()) == (True, 1)

    def test_eviction_drops_the_answer(self, monkeypatch):
        bs = [self.b(seed) for seed in range(3)]
        monkeypatch.setattr(batched, "_INTERN_BYTES", bs[0].nbytes)
        for b in bs:
            assert self.finite(b) == (True, 1)
        assert len(batched._by_digest) == 1
        assert self.finite(bs[0].copy()) == (True, 1)


def test_dtype_tags_key_on_dtype_objects():
    from repro.errors import PlanError
    from repro.serve.batcher import dtype_tag

    assert dtype_tag(np.zeros(1, np.float32).dtype) == "f32"
    assert dtype_tag(np.dtype(np.float64)) == "f64"
    for dtype in (np.dtype(np.int32), np.dtype(">f4"), np.dtype(np.float16)):
        with pytest.raises(PlanError, match="unsupported operand dtype"):
            dtype_tag(dtype)

