"""Experiment result containers and plain-text rendering.

Every experiment produces an :class:`ExperimentResult`: a set of labeled
series (the lines of the paper's figure, or the rows of its table), the
paper's headline claims for that experiment, and the values this
reproduction measured — rendered identically on the console and into
``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


@dataclass
class Series:
    """One line of a figure: y over x."""

    label: str
    x: list
    y: list[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"series {self.label!r}: x/y length mismatch")

    @property
    def peak(self) -> float:
        return max(self.y) if self.y else float("nan")


@dataclass
class Claim:
    """One paper claim vs this reproduction's measurement."""

    name: str
    paper: str
    measured: str
    holds: bool


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self, *, chart: bool = False) -> str:
        lines = [f"== {self.exp_id}: {self.title} =="]
        if chart and self.series and len(self.series[0].x) >= 2:
            from .ascii_plot import render_chart

            try:
                lines.append(
                    render_chart(
                        self.series, x_label=self.x_label, y_label=self.y_label
                    )
                )
            except ValueError:
                pass  # non-plottable data falls back to the table alone
        if self.series:
            headers = [self.x_label] + [s.label for s in self.series]
            xs = self.series[0].x
            rows = []
            for i, x in enumerate(xs):
                rows.append([x] + [s.y[i] if i < len(s.y) else "" for s in self.series])
            lines.append(format_table(headers, rows))
            lines.append(f"(y = {self.y_label})")
        if self.claims:
            lines.append("")
            lines.append("paper vs measured:")
            rows = [
                [c.name, c.paper, c.measured, "yes" if c.holds else "NO"]
                for c in self.claims
            ]
            lines.append(format_table(["claim", "paper", "measured", "holds"], rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form (for downstream plotting tools)."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": [
                {"label": s.label, "x": list(s.x), "y": list(s.y)}
                for s in self.series
            ],
            "claims": [
                {
                    "name": c.name,
                    "paper": c.paper,
                    "measured": c.measured,
                    "holds": c.holds,
                }
                for c in self.claims
            ],
            "notes": list(self.notes),
        }

    def to_markdown(self) -> str:
        lines = [f"### {self.exp_id}: {self.title}", ""]
        if self.series:
            headers = [self.x_label] + [s.label for s in self.series]
            lines.append("| " + " | ".join(headers) + " |")
            lines.append("|" + "---|" * len(headers))
            xs = self.series[0].x
            for i, x in enumerate(xs):
                row = [str(x)] + [
                    _fmt(s.y[i]) if i < len(s.y) else "" for s in self.series
                ]
                lines.append("| " + " | ".join(row) + " |")
            lines.append("")
            lines.append(f"*y = {self.y_label}*")
            lines.append("")
        if self.claims:
            lines.append("| claim | paper | measured | holds |")
            lines.append("|---|---|---|---|")
            for c in self.claims:
                lines.append(
                    f"| {c.name} | {c.paper} | {c.measured} | "
                    f"{'yes' if c.holds else '**no**'} |"
                )
            lines.append("")
        for note in self.notes:
            lines.append(f"> {note}")
            lines.append("")
        return "\n".join(lines)
