"""Metrics and experiment-result rendering."""

import pytest

from repro.analysis.metrics import efficiency, gflops, percent, speedup
from repro.analysis.tables import Claim, ExperimentResult, Series, format_table
from repro.core.shapes import GemmShape


class TestMetrics:
    def test_gflops(self):
        assert gflops(GemmShape(1000, 1000, 1000), 1.0) == pytest.approx(2.0)

    def test_gflops_rejects_zero_time(self):
        with pytest.raises(ValueError):
            gflops(GemmShape(1, 1, 1), 0.0)

    def test_efficiency(self):
        # both arguments in FLOP/s (the unit asymmetry fix)
        assert efficiency(100e9, 200e9) == pytest.approx(0.5)

    def test_efficiency_unit_symmetry(self):
        # scaling both arguments by the same factor changes nothing
        assert efficiency(1e9, 4e9) == pytest.approx(efficiency(1.0, 4.0))

    def test_speedup(self):
        assert speedup(2.0, 1.0) == pytest.approx(2.0)

    def test_percent(self):
        assert percent(0.982) == "98.2%"


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("s", [1, 2], [1.0])

    def test_peak(self):
        assert Series("s", [1, 2, 3], [1.0, 5.0, 2.0]).peak == 5.0


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [100, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_float_formatting(self):
        text = format_table(["x"], [[1234.5678], [0.004]])
        assert "1.23e+03" in text
        assert "0.004" in text


class TestExperimentResult:
    def make(self):
        return ExperimentResult(
            exp_id="figX",
            title="demo",
            x_label="N",
            y_label="GFLOPS",
            series=[
                Series("ftIMM", [8, 16], [10.0, 20.0]),
                Series("TGEMM", [8, 16], [5.0, 6.0]),
            ],
            claims=[Claim("wins", "yes", "2.0x", True)],
            notes=["a note"],
        )

    def test_render_contains_everything(self):
        text = self.make().render()
        assert "figX" in text and "ftIMM" in text and "wins" in text
        assert "note: a note" in text

    def test_markdown_tables(self):
        md = self.make().to_markdown()
        assert md.startswith("### figX")
        assert "| N | ftIMM | TGEMM |" in md
        assert "| wins | yes | 2.0x | yes |" in md

    def test_failed_claim_flagged(self):
        result = self.make()
        result.claims.append(Claim("fails", "x", "y", False))
        assert "**no**" in result.to_markdown()
        assert "NO" in result.render()
