"""Assembly rendering and pipeline tables (Tables I-III structure)."""

from repro.isa.emitter import (
    fmac_occupancy,
    pipeline_grid,
    render_assembly,
    render_pipeline_table,
)
from repro.isa.units import UnitClass


class TestPipelineGrid:
    def test_table1_analogue_fully_occupied(self, registry):
        """8x96 kernel: every FMAC slot of every cycle holds VFMULAS32 and
        the scalar chain issues once per cycle — the structure of Table I."""
        kern = registry.ftimm(8, 96, 512)
        grid = pipeline_grid(kern.body_schedules[0])
        for inst in range(3):
            cells = grid[(UnitClass.VFMAC, inst)]
            assert all(c == "VFMULAS32" for c in cells)
        assert all(c == "SLDH" for c in grid[(UnitClass.SLS, 0)])
        assert all(c == "SVBCAST" for c in grid[(UnitClass.SFMAC2, 0)])

    def test_table2_analogue_counts(self, registry):
        """6x64 kernel: 6 SLDW / SVBCAST2 / SBALE2H per 8-cycle window,
        2 VLDDW — Table II's shape."""
        kern = registry.ftimm(6, 64, 512)
        grid = pipeline_grid(kern.body_schedules[0])
        assert sum(c == "SLDW" for c in grid[(UnitClass.SLS, 0)]) == 6
        assert sum(c == "SVBCAST2" for c in grid[(UnitClass.SFMAC2, 0)]) == 6
        assert sum(c == "SBALE2H" for c in grid[(UnitClass.SIEU, 0)]) == 6
        vldw_count = sum(
            c == "VLDDW"
            for i in range(2)
            for c in grid[(UnitClass.VLS, i)]
        )
        assert vldw_count == 2

    def test_table3_analogue_broadcast_limited(self, registry):
        kern = registry.ftimm(6, 32, 512)
        occ = fmac_occupancy(kern.body_schedules[0])
        assert occ <= 2 / 3 + 1e-9

    def test_fmac_occupancy_of_full_kernel(self, registry):
        kern = registry.ftimm(12, 96, 512)
        assert fmac_occupancy(kern.body_schedules[0]) > 0.99


class TestRendering:
    def test_pipeline_table_has_unit_rows(self, registry):
        text = registry.ftimm(6, 64, 512).pipeline_table()
        assert "Scalar Load&Store1" in text
        assert "Vector FMAC3" in text
        assert "Control unit" in text

    def test_pipeline_table_has_ii_columns(self, registry):
        kern = registry.ftimm(8, 96, 512)
        header = kern.pipeline_table().splitlines()[1]
        assert str(kern.ii) in header

    def test_render_assembly_lines(self, registry):
        kern = registry.ftimm(4, 32, 16)
        text = render_assembly(kern.program.blocks[0].body)
        assert "VFMULAS32" in text
        assert text.count("\n") == len(kern.program.blocks[0].body) - 1

    def test_straightline_table_renders(self, registry):
        kern = registry.ftimm(6, 64, 512)
        text = render_pipeline_table(kern.setup_schedules[0], "setup")
        assert text.startswith("setup")
