"""Served bits are standalone bits by construction, on every serve mix.

The engine runs each batch member on its own standalone program and
charges the batch the stacked program the grouped call models.  For all
five mixes under ``edf`` and ``least_loaded`` (200k rps, 150 requests,
seed 42) this checks:

* every completed C equals a fresh standalone ``ftimm_gemm``, bit for bit;
* nothing is repaired (``verify_repaired == 0``);
* ``repro.serve.server.ftimm_gemm`` runs exactly once per completed
  member — a clean run does no second computation;
* stacking never changes a member's strategy, ``k_a`` or ``k_g`` — the
  premise for charging the stacked program (stacking moves only the M
  blocking, which sets no member's per-row summation order).
"""

import copy

import numpy as np
import pytest

from repro.core.ftimm import ftimm_gemm
from repro.core.shapes import GemmShape
from repro.core.tuner import tune
from repro.hw.config import default_machine
from repro.serve import ServeConfig, make_requests, serve
from repro.serve import server
from repro.serve.request import COMPLETED

MIXES = ("overload", "convnet", "mixed", "transformer", "fem")


def _k_blocking(shape: GemmShape) -> tuple:
    decision = tune(shape, default_machine().cluster)
    plan = decision.plan
    return (decision.strategy, getattr(plan, "k_a", None),
            getattr(plan, "k_g", None))


@pytest.mark.parametrize("policy", ["edf", "least_loaded"])
@pytest.mark.parametrize("mix", MIXES)
def test_served_bits_are_standalone_bits(mix, policy, monkeypatch):
    requests = make_requests(mix, rate_rps=200_000, n_requests=150, seed=42)
    pristine = copy.deepcopy(requests)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:3])
        return ftimm_gemm(*args, **kwargs)

    monkeypatch.setattr(server, "ftimm_gemm", counting)
    report = serve(requests, ServeConfig(policy=policy))
    monkeypatch.undo()

    assert report.completed > 0
    assert report.verify_repaired == 0
    assert len(calls) == report.completed

    by_id = {r.req_id: r for r in requests}
    for rec, p in zip(report.records, sorted(pristine,
                                             key=lambda r: r.req_id)):
        assert rec.req_id == p.req_id
        if rec.status != COMPLETED:
            continue
        ref = p.c.copy()
        ftimm_gemm(p.shape.m, p.shape.n, p.shape.k, a=p.a, b=p.b, c=ref,
                   timing="none")
        assert np.array_equal(by_id[rec.req_id].c, ref), rec.req_id

    stacked_batches = 0
    for b in report.batches:
        if b.n_items < 2:
            continue
        stacked_batches += 1
        member = by_id[b.request_ids[0]].shape
        stacked = _k_blocking(GemmShape(b.stacked_m, member.n, member.k))
        for rid in b.request_ids:
            assert _k_blocking(by_id[rid].shape) == stacked, (b.batch_id,
                                                              rid)
    assert stacked_batches > 0
