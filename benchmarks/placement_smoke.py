"""CI placement smoke: replicated-B placement earns its keep, safely.

Drives the transformer overload mix (hot shared-B decode-projection
buckets) through the serve engine and fails (exit 1) unless all four
hold:

1. **Replication wins at saturation.**  ``replicate_b="adaptive"`` must
   *strictly* beat ``least_loaded`` without replication on goodput at a
   saturating offered load — the tentpole claim.  Replication pays DDR
   staging once per replica to let the hot bucket's batches skip their
   per-dispatch B staging and spread across clusters.

2. **Off is bit-identical.**  ``replicate_b="off"`` must produce records
   and batch rows bit-identical to the default config, whatever the
   placement knobs say — the placement layer must be invisible when
   disabled.

3. **Gateway parity with replication on.**  The live asyncio gateway
   must stay bit-identical to the pre-drawn replay with ``adaptive``
   replication enabled: placement decisions happen at batch close,
   inside engine event processing, which both paths drive in the same
   ``offer()`` order.

4. **Zero corruption under chaos.**  One sick cluster under aggressive
   bit-flips, degrade *and* replication enabled: every loss typed, every
   completed C equals a fresh fault-free standalone ``ftimm_gemm`` of its
   pre-run operands, conservation holds, and replica residency never
   exceeds the budget.

All runs are deterministic (simulated time, fixed seed), so a failure
here is a regression, not noise.

Usage::

    PYTHONPATH=src python benchmarks/placement_smoke.py [seed]
"""

from __future__ import annotations

import copy
import sys

from repro.faults import FaultPlan
from repro.hw.config import default_machine
from repro.serve import (
    DegradePolicy,
    ServeConfig,
    gateway_replay,
    make_requests,
    serve,
)
from repro.serve.degrade import silent_corruptions

SEED = 42
#: saturating load: well past the knee of the overload-mix curve, where
#: per-dispatch B staging of the hot decode-projection bucket serializes
SATURATED_RPS = 300_000.0
N_REQUESTS = 200
QUEUE_CAP = 256


def _requests(seed: int, rate: float = SATURATED_RPS):
    return make_requests(
        "overload", rate_rps=rate, n_requests=N_REQUESTS, seed=seed
    )


def main(argv: list[str]) -> int:
    seed = int(argv[1]) if len(argv) > 1 else SEED
    failures = []

    # -- claim 1: adaptive strictly beats least_loaded-without ---------
    baseline = serve(_requests(seed), ServeConfig(
        policy="least_loaded", queue_cap=QUEUE_CAP,
    ))
    adaptive = serve(_requests(seed), ServeConfig(
        policy="least_loaded", queue_cap=QUEUE_CAP,
        replicate_b="adaptive",
    ))
    placement = adaptive.placement
    print(
        f"saturation @ {SATURATED_RPS:.0f} rps (n={N_REQUESTS}, "
        f"seed={seed}): least_loaded goodput={baseline.goodput_rps:.0f} "
        f"rps, +adaptive replication={adaptive.goodput_rps:.0f} rps "
        f"({placement.hits} staging skips, "
        f"{placement.promotions} promotion(s))"
    )
    if not adaptive.goodput_rps > baseline.goodput_rps:
        failures.append(
            "adaptive replication must strictly beat least_loaded "
            f"without replication at saturation: {adaptive.goodput_rps:.0f}"
            f" vs {baseline.goodput_rps:.0f} rps"
        )
    if placement.hits == 0:
        failures.append(
            "placement leg is vacuous: no batch ever ran on a replica "
            "holder"
        )

    # -- claim 2: off is bit-identical, knobs inert --------------------
    off = serve(_requests(seed), ServeConfig(
        policy="least_loaded", queue_cap=QUEUE_CAP,
        replicate_b="off", replica_budget_bytes=1, max_replicas=9,
        promote_after=7,
    ))
    off_identical = (
        off.records == baseline.records
        and off.batches == baseline.batches
        and off.makespan_s == baseline.makespan_s
        and off.placement is None
    )
    print(
        "replicate_b=off vs default config: "
        f"bit-identical={'yes' if off_identical else 'NO'}"
    )
    if not off_identical:
        failures.append(
            "replicate_b='off' must be record-bit-identical to the "
            "pre-placement serve, placement knobs inert"
        )

    # -- claim 3: gateway bit-identity with replication on -------------
    gw_config = ServeConfig(
        policy="least_loaded", queue_cap=QUEUE_CAP, replicate_b="adaptive",
    )
    live = gateway_replay(_requests(seed), gw_config)
    gw_identical = (
        live.records == adaptive.records
        and live.batches == adaptive.batches
        and live.placement.events == adaptive.placement.events
    )
    print(
        "gateway vs pre-drawn replay with adaptive replication: "
        f"bit-identical={'yes' if gw_identical else 'NO'}"
    )
    if not gw_identical:
        failures.append(
            "gateway records and placement timeline must be bit-identical"
            " to the pre-drawn replay with replication on"
        )

    # -- claim 4: zero corruption under one-sick-cluster chaos ---------
    n_clusters = default_machine().n_clusters
    # A, B and C0 snapshotted before the run: every completed C is
    # audited against a fresh fault-free standalone ftimm_gemm
    served = _requests(seed)
    pristine = copy.deepcopy(served)
    chaotic = serve(served, ServeConfig(
        policy="least_loaded", queue_cap=QUEUE_CAP,
        replicate_b="adaptive",
        degrade=DegradePolicy(),
        faults=FaultPlan(seed=seed, bitflip_rate=1.0, max_kernel_retries=0),
        cluster_fault_scale=(1.0,) + (0.0,) * (n_clusters - 1),
    ))
    counts = {r.status for r in chaotic.records}
    accounted = chaotic.completed + chaotic.shed + chaotic.failed
    corrupted = silent_corruptions(chaotic, served, pristine)
    over_budget = [
        peak for peak in chaotic.placement.peak_bytes
        if peak > chaotic.config.replica_budget_bytes
    ]
    print(
        f"chaos with replication: completed={chaotic.completed} "
        f"shed={chaotic.shed} failed={chaotic.failed} "
        f"repaired={chaotic.verify_repaired} "
        f"restages={chaotic.placement.restages} outcomes={sorted(counts)}"
    )
    if accounted != N_REQUESTS:
        failures.append(
            f"conservation violated under chaos: completed + shed + "
            f"failed = {accounted}, offered {N_REQUESTS}"
        )
    if not counts <= {"completed", "shed", "failed"}:
        failures.append(
            f"untyped outcome under chaos: {sorted(counts)} — every loss "
            "must be a typed shed or failure"
        )
    if corrupted:
        failures.append(
            f"{len(corrupted)} completed result(s) differ from the "
            "standalone answer under chaos"
        )
    if over_budget:
        failures.append(
            "replica residency exceeded the per-cluster budget under "
            f"chaos: {over_budget}"
        )
    if chaotic.redispatches == 0 and chaotic.failed == 0:
        failures.append(
            "chaos leg is vacuous: the fault plan injected no faulted "
            "attempts (no redispatches, no failures)"
        )

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}")
        return 1
    print(
        "OK: adaptive replication strictly beats the non-replicated "
        "baseline at saturation, off-mode is bit-identical, the gateway "
        "replays to the bit with replication on, zero corruption under "
        "chaos"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
