"""VLIW unit files and their derivation from core configs."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.hw.config import DspCoreConfig
from repro.isa.units import (
    DEFAULT_UNITS,
    DEFAULT_UNIT_COUNTS,
    TABLE_ROW_ORDER,
    UNIT_DISPLAY_NAMES,
    UnitClass,
    UnitFile,
    units_for,
)


#: the scalar processing unit's slots
SCALAR = {UnitClass.SLS, UnitClass.SFMAC1, UnitClass.SFMAC2, UnitClass.SIEU,
          UnitClass.CTRL}


class TestDefaultUnits:
    def test_issue_width_is_eleven(self):
        """5 scalar + 6 vector slots, the paper's IFU."""
        assert sum(n for _cls, n in DEFAULT_UNITS.counts) == 11

    def test_scalar_vector_split(self):
        scalar = sum(n for cls, n in DEFAULT_UNITS.counts if cls in SCALAR)
        vector = sum(n for _cls, n in DEFAULT_UNITS.counts) - scalar
        assert scalar == 5
        assert vector == 6

    def test_three_fmac_pipes(self):
        assert DEFAULT_UNITS.count(UnitClass.VFMAC) == 3

    def test_single_broadcast_slot(self):
        """The 2-scalars-per-cycle SPU limit = one broadcast instruction
        slot (SVBCAST2 carries two scalars)."""
        assert DEFAULT_UNITS.count(UnitClass.SFMAC2) == 1

    def test_as_dict_matches_counts(self):
        assert dict(DEFAULT_UNITS.counts) == DEFAULT_UNIT_COUNTS

    def test_unknown_class_rejected(self):
        partial = UnitFile(((UnitClass.VFMAC, 3),))
        with pytest.raises(ConfigError):
            partial.count(UnitClass.SLS)


class TestUnitsFor:
    def test_default_config_matches_default_units(self):
        derived = units_for(DspCoreConfig())
        assert derived.counts == DEFAULT_UNITS.counts

    def test_fmac_count_follows_config(self):
        core = dataclasses.replace(DspCoreConfig(), n_vector_fmac=1)
        assert units_for(core).count(UnitClass.VFMAC) == 1

    def test_vls_count_follows_config(self):
        core = dataclasses.replace(DspCoreConfig(), n_vector_ls=4)
        assert units_for(core).count(UnitClass.VLS) == 4


class TestDisplayTables:
    def test_every_row_has_a_display_name(self):
        for key in TABLE_ROW_ORDER:
            assert key in UNIT_DISPLAY_NAMES

    def test_paper_row_names_present(self):
        names = set(UNIT_DISPLAY_NAMES.values())
        for expected in (
            "Scalar Load&Store1", "Scalar FMAC1", "Scalar FMAC2", "SIEU",
            "Vector Load&Store1", "Vector Load&Store2",
            "Vector FMAC1", "Vector FMAC2", "Vector FMAC3", "Control unit",
        ):
            assert expected in names

    def test_row_order_matches_paper_tables(self):
        """Scalar rows above vector rows, control last — Tables I-III."""
        classes = [cls for cls, _i in TABLE_ROW_ORDER]
        assert classes[-1] is UnitClass.CTRL
        first_vector = next(
            i for i, cls in enumerate(classes) if cls not in SCALAR
        )
        assert all(cls in SCALAR for cls in classes[:first_vector])


class TestReducedVlsEffect:
    def test_halved_load_bandwidth_stretches_kernels(self):
        """With one vector load/store unit, the per-iteration B loads and
        the C-update epilogue both serialize harder: every kernel slows,
        measurably (the scheduler re-derives a larger II / longer spans)."""
        from repro.kernels.registry import KernelRegistry

        base = DspCoreConfig()
        slim = dataclasses.replace(base, n_vector_ls=1)
        reg_base = KernelRegistry(base)
        reg_slim = KernelRegistry(slim)
        for k in (512, 16):
            ratio = (
                reg_slim.ftimm(8, 96, k).cycles
                / reg_base.ftimm(8, 96, k).cycles
            )
            assert ratio > 1.05, k
