"""CI chaos smoke: no faulted GEMM may return silently wrong bits.

Runs the fixed-seed chaos sweep — bit-flip plans at rates up to 1e-2,
mid-run core losses, and a DES probe with DMA failures plus a DDR
brown-out — over both implementations, and **fails (exit 1) if any run
returned a result that differs from its fault-free baseline without
raising a typed error**.  Recovered faults and loud typed failures are
both acceptable; silence is the only sin.

A second check asserts the sweep actually exercised the machinery: at
least one fault must have been injected and recovered, so a regression
that quietly disables injection (rates ignored, guards bypassed) also
fails the gate.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py [seeds]
"""

from __future__ import annotations

import sys

from repro.faults.chaos import chaos_sweep


def main(argv: list[str]) -> int:
    seeds = int(argv[1]) if len(argv) > 1 else 3
    summary = chaos_sweep(
        seeds=range(seeds),
        rates=(1e-3, 1e-2),
        impls=("ftimm", "tgemm"),
        core_failures=True,
        timed_probe=True,
    )
    print(summary.describe())
    if not summary.ok:
        print("FAIL: silent corruption escaped the recovery guards")
        return 1
    recovered = sum(
        o.report.recovered_faults for o in summary.outcomes if o.report
    )
    injected = sum(
        o.report.injected_bitflips + o.report.core_failures
        for o in summary.outcomes
        if o.report
    )
    if injected == 0 or recovered == 0:
        print(
            f"FAIL: sweep injected {injected} faults and recovered "
            f"{recovered} — the injection machinery looks disabled"
        )
        return 1
    print(f"OK: {injected} faults injected, {recovered} recovered, 0 silent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
