"""VLIW functional units and issue slots of an FT-m7032 DSP core.

The instruction dispatch unit (IFU) launches up to 11 instructions per
cycle: 5 scalar + 6 vector (Section II).  The unit rows visible in the
paper's pipeline tables (Tables I–III) give the slot structure:

Scalar side (5):

* ``SLS``   — "Scalar Load&Store1": scalar loads (SLDH/SLDW).
* ``SFMAC1`` — scalar FMAC used for extract/extend ops (SFEXTS32L).
* ``SFMAC2`` — scalar FMAC used for SPU→VPU broadcasts.  The SPU can move
  at most **two FP32 scalars per cycle** into vector registers "owing to
  instruction conflicts" (Section IV-A1); modeling the broadcast as a
  single-instance unit (SVBCAST = 1 scalar, SVBCAST2 = 2 scalars per
  instruction) enforces exactly that ceiling.
* ``SIEU``  — fixed-point unit (SBALE2H rearranges the high half of a pair).
* ``CTRL``  — branch unit (SBR).

Vector side (6):

* ``VLS`` ×2 — vector load/store units; together they deliver up to 512 B
  per cycle from AM (VLDDW moves two vector registers per instruction).
* ``VFMAC`` ×3 — the three FMAC pipes of each VPE.
* ``VSHF`` ×1 — shuffle/move unit (register init VMOVI).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigError


class UnitClass(enum.Enum):
    """A class of identical, fully-pipelined functional units."""

    SLS = "scalar_ls"
    SFMAC1 = "scalar_fmac1"
    SFMAC2 = "scalar_bcast"
    SIEU = "sieu"
    CTRL = "ctrl"
    VLS = "vector_ls"
    VFMAC = "vector_fmac"
    VSHF = "vector_shuffle"


#: number of unit instances per class on one DSP core.
DEFAULT_UNIT_COUNTS: dict[UnitClass, int] = {
    UnitClass.SLS: 1,
    UnitClass.SFMAC1: 1,
    UnitClass.SFMAC2: 1,
    UnitClass.SIEU: 1,
    UnitClass.CTRL: 1,
    UnitClass.VLS: 2,
    UnitClass.VFMAC: 3,
    UnitClass.VSHF: 1,
}

#: display names used when rendering pipeline tables like the paper's.
UNIT_DISPLAY_NAMES: dict[tuple[UnitClass, int], str] = {
    (UnitClass.SLS, 0): "Scalar Load&Store1",
    (UnitClass.SFMAC1, 0): "Scalar FMAC1",
    (UnitClass.SFMAC2, 0): "Scalar FMAC2",
    (UnitClass.SIEU, 0): "SIEU",
    (UnitClass.VLS, 0): "Vector Load&Store1",
    (UnitClass.VLS, 1): "Vector Load&Store2",
    (UnitClass.VFMAC, 0): "Vector FMAC1",
    (UnitClass.VFMAC, 1): "Vector FMAC2",
    (UnitClass.VFMAC, 2): "Vector FMAC3",
    (UnitClass.VSHF, 0): "Vector Shuffle",
    (UnitClass.CTRL, 0): "Control unit",
}

#: row order for rendered pipeline tables (matches Tables I–III).
TABLE_ROW_ORDER: list[tuple[UnitClass, int]] = [
    (UnitClass.SLS, 0),
    (UnitClass.SFMAC1, 0),
    (UnitClass.SFMAC2, 0),
    (UnitClass.SIEU, 0),
    (UnitClass.VLS, 0),
    (UnitClass.VLS, 1),
    (UnitClass.VFMAC, 0),
    (UnitClass.VFMAC, 1),
    (UnitClass.VFMAC, 2),
    (UnitClass.VSHF, 0),
    (UnitClass.CTRL, 0),
]


@dataclass(frozen=True)
class UnitFile:
    """The set of functional units available to the scheduler."""

    counts: tuple[tuple[UnitClass, int], ...] = tuple(
        sorted(DEFAULT_UNIT_COUNTS.items(), key=lambda kv: kv[0].value)
    )

    def count(self, cls: UnitClass) -> int:
        for unit, n in self.counts:
            if unit is cls:
                return n
        raise ConfigError(f"unknown unit class {cls}")


DEFAULT_UNITS = UnitFile()


def units_for(core_cfg) -> UnitFile:
    """Unit file matching a :class:`~repro.hw.config.DspCoreConfig`.

    Vector FMAC and load/store counts come from the config so perturbed
    machines (ablations, sensitivity tests) schedule on their actual
    resources; the scalar side follows the paper's fixed slot structure.
    """
    counts = dict(DEFAULT_UNIT_COUNTS)
    counts[UnitClass.VFMAC] = core_cfg.n_vector_fmac
    counts[UnitClass.VLS] = core_cfg.n_vector_ls
    return UnitFile(
        tuple(sorted(counts.items(), key=lambda kv: kv[0].value))
    )
