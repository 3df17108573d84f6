"""A fixed calibration loop: how fast the host runs at this moment.

A shared machine's speed drifts by tens of percent over minutes, which
no number of passes inside one run averages away.  The benchmark
therefore times this loop -- code of its own, which no program change
touches -- right beside every measured piece of program work, and
reports host times rescaled to the loop's nominal speed: a program that
ran at 200 requests/s while the loop ran 20% slow is credited with the
250 requests/s it would manage at nominal speed.  The loop mixes what
the simulator spends its time on: Python object churn, small float32
matrix products and hashing a buffer.
"""

from __future__ import annotations

import hashlib
import heapq
import time

import numpy as np

#: the loop's time on the machine the spread on record was measured on
#: (2-vCPU x86 VM, Python 3.11, NumPy 2.4); only ratios to it matter
NOMINAL_S = 0.015

_rng = np.random.default_rng(0x5EED)
_A = _rng.standard_normal((64, 256), dtype=np.float32)
_B = _rng.standard_normal((256, 32), dtype=np.float32)
_BUF = _rng.standard_normal(1 << 17, dtype=np.float32).tobytes()


def loop_s(rounds: int = 1) -> float:
    """Wall seconds of ``rounds`` runs of the fixed loop."""
    start = time.perf_counter()
    for _ in range(rounds):
        heap: list = []
        tally: dict[int, int] = {}
        acc = 0.0
        for i in range(7_000):
            heapq.heappush(heap, ((i * 7919) % 1013, i, {"op": i}))
            tally[i % 97] = tally.get(i % 97, 0) + i
            if len(heap) > 64:
                heapq.heappop(heap)
            if i % 8 == 0:
                acc += float((_A @ _B)[i % 64, i % 32])
        hashlib.blake2b(_BUF, digest_size=16).hexdigest()
    return time.perf_counter() - start


def slowdown(loop_seconds: float, rounds: int) -> float:
    """How much slower than nominal the machine ran: 1.25 = 25% slow."""
    return loop_seconds / (rounds * NOMINAL_S)
