"""Bottleneck attribution from a profiled timed run.

Turns the per-epoch busy-time accounting of a
:class:`~repro.obs.profile.RunProfile` into the classification the paper
argues by hand: is each phase of the execution limited by the FMAC
pipelines (compute-bound), the shared DDR port (DDR-bound), or barrier /
reduction overhead (sync-bound)?  A roofline summary (following the
"Performance Analysis of Matrix Multiplication for Deep Learning on the
Edge" methodology) states where the shape sits relative to the machine's
ridge point, so per-epoch observations can be checked against the
first-principles ceiling.

Classification per epoch: the mean-over-cores busy fractions for compute,
DMA and barrier wait are compared; the largest wins.  A DMA-dominated
epoch is labeled ``ddr`` when most of its traffic touched DDR and
``memory`` when it stayed on-chip (GSM); an epoch where nothing reaches
``IDLE_THRESHOLD`` is ``idle`` (dependency/latency limited).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..baselines.roofline import RooflinePoint, roofline
from ..core.shapes import GemmShape
from ..errors import ReproError
from ..executor.timed import TimedResult
from ..hw.config import ClusterConfig
from ..obs.profile import EpochProfile
from .tables import format_table

#: below this busy fraction for every category, an epoch is "idle"
#: (dependency latency, not a resource, is the limiter)
IDLE_THRESHOLD = 0.15


@dataclass(frozen=True)
class EpochAttribution:
    """One epoch's busy fractions and its dominant limiter."""

    index: int
    start: float
    end: float
    compute_frac: float
    dma_frac: float
    sync_frac: float
    stall_frac: float
    ddr_bytes: int
    total_bytes: int
    bound: str          # "compute" | "ddr" | "memory" | "sync" | "idle"
    sync_tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "compute_frac": self.compute_frac,
            "dma_frac": self.dma_frac,
            "sync_frac": self.sync_frac,
            "stall_frac": self.stall_frac,
            "ddr_bytes": self.ddr_bytes,
            "total_bytes": self.total_bytes,
            "bound": self.bound,
            "sync_tag": self.sync_tag,
        }


def _classify(compute: float, dma: float, sync: float, ddr_share: float) -> str:
    top = max(compute, dma, sync)
    if top < IDLE_THRESHOLD:
        return "idle"
    if top == compute:
        return "compute"
    if top == dma:
        return "ddr" if ddr_share >= 0.5 else "memory"
    return "sync"


def attribute_epoch(ep: EpochProfile) -> EpochAttribution:
    total_bytes = sum(ep.bytes_by_medium.values())
    ddr_bytes = ep.bytes_by_medium.get("ddr", 0)
    ddr_share = ddr_bytes / total_bytes if total_bytes else 0.0
    compute, dma, sync = ep.compute_frac, ep.dma_frac, ep.sync_frac
    return EpochAttribution(
        index=ep.index,
        start=ep.start,
        end=ep.end,
        compute_frac=compute,
        dma_frac=dma,
        sync_frac=sync,
        stall_frac=ep.stall_frac,
        ddr_bytes=ddr_bytes,
        total_bytes=total_bytes,
        bound=_classify(compute, dma, sync, ddr_share),
        sync_tag=ep.sync_tag,
    )


@dataclass
class BottleneckReport:
    """Run-level attribution: per-epoch limits plus the roofline view."""

    shape: GemmShape
    impl: str
    strategy: str
    n_cores: int
    seconds: float
    gflops: float
    efficiency: float
    peak_gflops: float
    roofline: RooflinePoint
    epochs: list[EpochAttribution]

    @property
    def bound(self) -> str:
        """Dominant limiter, weighted by epoch duration."""
        weights: dict[str, float] = {}
        for ep in self.epochs:
            weights[ep.bound] = weights.get(ep.bound, 0.0) + ep.duration
        if not weights:
            return "idle"
        return max(weights.items(), key=lambda kv: kv[1])[0]

    @property
    def roofline_fraction(self) -> float:
        """Achieved GFLOP/s relative to the roofline ceiling."""
        ceiling = self.roofline.max_gflops
        return self.gflops / ceiling if ceiling > 0 else 0.0

    def weighted_fracs(self) -> dict[str, float]:
        """Duration-weighted mean busy fraction per category."""
        total = sum(ep.duration for ep in self.epochs)
        if total <= 0:
            return {"compute": 0.0, "dma": 0.0, "sync": 0.0}
        return {
            "compute": sum(ep.compute_frac * ep.duration for ep in self.epochs) / total,
            "dma": sum(ep.dma_frac * ep.duration for ep in self.epochs) / total,
            "sync": sum(ep.sync_frac * ep.duration for ep in self.epochs) / total,
        }

    def render(self) -> str:
        """Terminal report: header, roofline summary, per-epoch table."""
        rf = self.roofline
        regime = "memory" if rf.memory_bound else "compute"
        lines = [
            f"perf report: {self.impl} {self.shape} "
            f"({self.shape.classify().value}), strategy {self.strategy}, "
            f"{self.n_cores} cores",
            f"  time {self.seconds * 1e6:.1f} us, {self.gflops:.1f} GFLOPS "
            f"({100 * self.efficiency:.1f}% of peak "
            f"{self.peak_gflops:.0f} GFLOPS)",
            f"  roofline: AI {rf.arithmetic_intensity:.2f} flop/B -> "
            f"{regime}-bound ceiling {rf.max_gflops:.1f} GFLOPS; "
            f"achieved {100 * self.roofline_fraction:.1f}% of it",
            f"  verdict: {self.bound}-bound "
            f"({len(self.epochs)} epochs, weighted busy: "
            + ", ".join(
                f"{k} {100 * v:.0f}%" for k, v in self.weighted_fracs().items()
            )
            + ")",
        ]
        rows = []
        for ep in self.epochs:
            rows.append([
                ep.index,
                f"{ep.duration * 1e6:.1f}",
                f"{100 * ep.compute_frac:.0f}%",
                f"{100 * ep.dma_frac:.0f}%",
                f"{100 * ep.sync_frac:.0f}%",
                f"{100 * ep.stall_frac:.0f}%",
                f"{ep.ddr_bytes / 1024:.0f}",
                ep.bound + (f" ({ep.sync_tag})" if ep.sync_tag else ""),
            ])
        lines.append(format_table(
            ["epoch", "dur (us)", "compute", "dma", "sync", "stall",
             "DDR KiB", "bound"],
            rows,
        ))
        return "\n".join(lines)

    def to_record_fields(self) -> dict[str, Any]:
        """The report-derived fields of a run-log record."""
        return {
            "shape": str(self.shape),
            "impl": self.impl,
            "strategy": self.strategy,
            "cores": self.n_cores,
            "seconds": self.seconds,
            "gflops": self.gflops,
            "efficiency": self.efficiency,
            "bound": self.bound,
            "epochs": [ep.to_dict() for ep in self.epochs],
        }


def attribute(
    result: TimedResult,
    shape: GemmShape,
    cluster: ClusterConfig,
    impl: str = "ftimm",
) -> BottleneckReport:
    """Build the bottleneck report for a profiled DES run."""
    if result.profile is None:
        raise ReproError(
            "run was not profiled: run it inside repro.obs.collecting()"
        )
    return BottleneckReport(
        shape=shape,
        impl=impl,
        strategy=result.strategy,
        n_cores=result.n_cores,
        seconds=result.seconds,
        gflops=result.gflops,
        efficiency=result.efficiency,
        peak_gflops=result.peak_flops / 1e9,
        roofline=roofline(shape, cluster, n_cores=result.n_cores),
        epochs=[attribute_epoch(ep) for ep in result.profile.epochs],
    )


def diff_records(old: dict[str, Any], new: dict[str, Any]) -> str:
    """Human-readable comparison of two run-log records (old -> new)."""
    def pct(a: float, b: float) -> str:
        if a == 0:
            return "n/a"
        delta = (b - a) / a * 100.0
        return f"{delta:+.1f}%"

    lines = [
        f"compare: {old.get('shape')} {old.get('impl')} "
        f"@{old.get('cores')} cores",
        f"  seconds:    {old['seconds']:.3e} -> {new['seconds']:.3e} "
        f"({pct(old['seconds'], new['seconds'])})",
        f"  GFLOPS:     {old['gflops']:.1f} -> {new['gflops']:.1f} "
        f"({pct(old['gflops'], new['gflops'])})",
        f"  efficiency: {100 * old['efficiency']:.1f}% -> "
        f"{100 * new['efficiency']:.1f}%",
        f"  bound:      {old['bound']} -> {new['bound']}"
        + ("  (changed!)" if old["bound"] != new["bound"] else ""),
    ]
    old_eps, new_eps = old.get("epochs", []), new.get("epochs", [])
    if len(old_eps) != len(new_eps):
        lines.append(
            f"  epochs:     {len(old_eps)} -> {len(new_eps)} (plan changed)"
        )
    else:
        changed = [
            (a["index"], a["bound"], b["bound"])
            for a, b in zip(old_eps, new_eps)
            if a["bound"] != b["bound"]
        ]
        for index, was, now in changed:
            lines.append(f"  epoch {index}: {was} -> {now}")
        if not changed:
            lines.append(f"  epochs:     {len(new_eps)}, all bounds unchanged")
    return "\n".join(lines)
