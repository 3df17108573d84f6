"""The closed serving experiment: offered-load sweep → saturation curve.

For each offered load the harness replays the *same-seed* request stream
through :func:`~repro.serve.server.serve` and records goodput, latency
percentiles and shed fraction.  Sweeping load upward traces the classic
saturation curve: goodput tracks offered load until the clusters
saturate, then flattens while tail latency and shedding climb.

Run with ``compare_naive=True`` it repeats the sweep with batching
disabled (``max_batch=1`` — one ``ftimm_gemm`` call per request, B
staged per call), which is the honest baseline the batcher must beat:
at saturation the batched server sustains strictly higher goodput or the
subsystem is not paying for itself.  The serve group of
``benchmarks/serve_claims.py`` gates CI on exactly that claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from ..analysis.tables import format_table
from ..errors import PlanError
from ..hw.config import MachineConfig
from .loadgen import ShapeClass, make_requests
from .server import ServeConfig, ServeReport, serve


@dataclass
class SweepPoint:
    """One offered load's outcome."""

    offered_rps: float
    report: ServeReport

    def as_row(self) -> list[object]:
        r = self.report
        return [
            f"{self.offered_rps:.0f}",
            f"{r.goodput_rps:.0f}",
            f"{r.completed_rps:.0f}",
            r.completed,
            r.shed,
            r.failed,
            f"{r.mean_batch_size:.2f}",
            f"{r.latency_quantile(0.50) * 1e3:.3f}",
            f"{r.latency_quantile(0.95) * 1e3:.3f}",
            f"{r.latency_quantile(0.99) * 1e3:.3f}",
            f"{r.throughput_gflops:.2f}",
        ]


SWEEP_HEADERS = [
    "offered (rps)", "goodput (rps)", "completed (rps)",
    "completed", "shed", "failed", "batch",
    "p50 (ms)", "p95 (ms)", "p99 (ms)", "GFLOPS",
]


@dataclass
class SweepResult:
    """A full offered-load sweep (optionally with the naive baseline)."""

    mix_name: str
    policy: str
    seed: int
    n_requests: int
    points: list[SweepPoint]
    naive_points: list[SweepPoint] = field(default_factory=list)

    @property
    def saturated_goodput_rps(self) -> float:
        """Goodput at the highest offered load (the saturation plateau)."""
        return self.points[-1].report.goodput_rps

    @property
    def naive_saturated_goodput_rps(self) -> float:
        if not self.naive_points:
            raise PlanError("sweep ran without the naive baseline")
        return self.naive_points[-1].report.goodput_rps

    @property
    def batching_wins_at_saturation(self) -> bool:
        return self.saturated_goodput_rps > self.naive_saturated_goodput_rps

    def render(self) -> str:
        out = [
            f"serve sweep: mix={self.mix_name} policy={self.policy} "
            f"seed={self.seed} n={self.n_requests}",
            format_table(SWEEP_HEADERS, [p.as_row() for p in self.points]),
        ]
        if self.naive_points:
            out.append("")
            out.append("naive baseline (max_batch=1, one call per request):")
            out.append(format_table(
                SWEEP_HEADERS, [p.as_row() for p in self.naive_points]
            ))
            out.append("")
            out.append(
                f"saturation: batched {self.saturated_goodput_rps:.0f} rps "
                f"vs naive {self.naive_saturated_goodput_rps:.0f} rps -> "
                + ("batching wins" if self.batching_wins_at_saturation
                   else "BATCHING DOES NOT PAY")
            )
        return "\n".join(out)

    def to_record_fields(self) -> dict:
        """Flat fields for the JSONL run-log."""
        return {
            "mix": self.mix_name,
            "policy": self.policy,
            "seed": self.seed,
            "n_requests": self.n_requests,
            "sweep": [
                {
                    "offered_rps": p.offered_rps,
                    "goodput_rps": p.report.goodput_rps,
                    "completed": p.report.completed,
                    "shed": p.report.shed,
                    "failed": p.report.failed,
                    "mean_batch": p.report.mean_batch_size,
                    "p50_s": p.report.latency_quantile(0.50),
                    "p95_s": p.report.latency_quantile(0.95),
                    "p99_s": p.report.latency_quantile(0.99),
                    "gflops": p.report.throughput_gflops,
                }
                for p in self.points
            ],
            "naive_sweep": [
                {
                    "offered_rps": p.offered_rps,
                    "goodput_rps": p.report.goodput_rps,
                    "completed": p.report.completed,
                    "shed": p.report.shed,
                }
                for p in self.naive_points
            ],
        }


def sweep(
    mix: list[ShapeClass] | str,
    loads_rps: list[float],
    *,
    n_requests: int = 200,
    seed: int = 0,
    config: ServeConfig | None = None,
    arrivals: str = "poisson",
    compare_naive: bool = False,
    machine: MachineConfig | None = None,
) -> SweepResult:
    """Replay the same-seed stream at each offered load."""
    if not loads_rps:
        raise PlanError("loads_rps must be non-empty")
    if sorted(loads_rps) != list(loads_rps):
        raise PlanError("loads_rps must be sorted ascending")
    config = config or ServeConfig()
    mix_name = mix if isinstance(mix, str) else "custom"

    def run_at(load: float, cfg: ServeConfig) -> SweepPoint:
        requests = make_requests(
            mix, rate_rps=load, n_requests=n_requests, seed=seed,
            arrivals=arrivals,
        )
        return SweepPoint(load, serve(requests, cfg, machine=machine))

    points = [run_at(load, config) for load in loads_rps]
    naive_points = []
    if compare_naive:
        naive_cfg = dc_replace(config, max_batch=1)
        naive_points = [run_at(load, naive_cfg) for load in loads_rps]
    return SweepResult(
        mix_name=mix_name,
        policy=config.policy,
        seed=seed,
        n_requests=n_requests,
        points=points,
        naive_points=naive_points,
    )
