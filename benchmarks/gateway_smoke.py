"""CI gateway smoke: the async front-end's determinism contract.

Drives the fixed-seed reference mix through the asyncio gateway
(``repro.serve.gateway``) and fails (exit 1) unless all three hold:

1. **Bit-identity.**  The seeded async driver must produce records
   bit-identical to the equivalent pre-drawn replay (``serve``) at the
   same offered load — same outcomes, timestamps, digests, batch rows
   and makespan.  This is the gateway's core contract: the virtual-clock
   bridge may never perturb simulated time.

2. **Goodput parity.**  Async goodput must land within 2% of the replay
   at the same offered load.  Bit-identity actually implies exact
   equality, so the tolerance only exists to keep the gate meaningful if
   the identity audit is ever relaxed; a parity miss with identical
   records is impossible.

3. **Zero corruption under chaos.**  With one sick cluster under
   aggressive bit-flips and degrade enabled, every loss must be typed
   (shed or failed, never silent), every completed C must equal a fresh
   fault-free standalone ``ftimm_gemm`` of its pre-run operands, and
   the conservation law offered = completed + shed + failed must hold.

All runs are deterministic (simulated time, fixed seed), so a failure
here is a regression, not noise.

Usage::

    PYTHONPATH=src python benchmarks/gateway_smoke.py [seed]
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
OFFERED_RPS = 120_000.0
N_REQUESTS = 120
QUEUE_CAP = 64
GOODPUT_TOL = 0.02


def _requests(seed: int):
    return make_requests(
        "overload", rate_rps=OFFERED_RPS, n_requests=N_REQUESTS, seed=seed
    )


def main(argv: list[str]) -> int:
    seed = int(argv[1]) if len(argv) > 1 else SEED
    failures = []

    # -- claim 1 + 2: bit-identity and goodput parity vs replay --------
    config = ServeConfig(policy="edf", queue_cap=QUEUE_CAP)
    live = gateway_replay(_requests(seed), config)
    replay = serve(_requests(seed), config)
    identical = (
        live.records == replay.records
        and live.batches == replay.batches
        and live.makespan_s == replay.makespan_s
    )
    print(
        f"gateway vs replay @ {OFFERED_RPS:.0f} rps (n={N_REQUESTS}, "
        f"seed={seed}): live goodput={live.goodput_rps:.0f} rps, "
        f"replay goodput={replay.goodput_rps:.0f} rps, "
        f"bit-identical={'yes' if identical else 'NO'}"
    )
    if not identical:
        failures.append(
            "async gateway records must be bit-identical to the "
            "pre-drawn replay at the same offered load"
        )
    if replay.goodput_rps > 0:
        rel = abs(live.goodput_rps - replay.goodput_rps) / replay.goodput_rps
        if rel > GOODPUT_TOL:
            failures.append(
                f"async goodput must be within {GOODPUT_TOL:.0%} of the "
                f"replay, got {rel:.1%} off"
            )

    # -- claim 3: zero corruption under chaos --------------------------
    n_clusters = default_machine().n_clusters
    chaos_config = ServeConfig(
        policy="edf",
        queue_cap=QUEUE_CAP,
        degrade=DegradePolicy(),
        faults=FaultPlan(seed=seed, bitflip_rate=1.0, max_kernel_retries=0),
        cluster_fault_scale=(1.0,) + (0.0,) * (n_clusters - 1),
    )
    # A, B and C0 snapshotted before the run: every completed C is
    # audited against a fresh fault-free standalone ftimm_gemm
    served = _requests(seed)
    pristine = copy.deepcopy(served)
    chaotic = gateway_replay(served, chaos_config)
    counts = {r.status for r in chaotic.records}
    accounted = chaotic.completed + chaotic.shed + chaotic.failed
    corrupted = silent_corruptions(chaotic, served, pristine)
    print(
        f"gateway under chaos: completed={chaotic.completed} "
        f"shed={chaotic.shed} failed={chaotic.failed} "
        f"repaired={chaotic.verify_repaired} "
        f"outcomes={sorted(counts)}"
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
        "OK: gateway is bit-identical to replay, goodput within "
        f"{GOODPUT_TOL:.0%}, zero corruption under chaos"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
