"""Rendering of generated kernels: assembly listings and pipeline tables.

:func:`render_pipeline_table` reproduces the presentation of the paper's
Tables I–III: one row per functional-unit instance, one column per cycle of
the steady-state loop body (II columns), each cell naming the instruction
issued on that unit in that cycle.
"""

from __future__ import annotations

from .instructions import Instr
from .scheduler import Schedule
from .units import TABLE_ROW_ORDER, UNIT_DISPLAY_NAMES, UnitClass


def render_assembly(instrs: list[Instr], indent: str = "  ") -> str:
    return "\n".join(f"{indent}{instr.render()}" for instr in instrs)


def pipeline_grid(sched: Schedule) -> dict[tuple[UnitClass, int], list[str]]:
    """Steady-state reservation grid: unit instance -> II cell labels."""
    ii = sched.ii if sched.is_loop else sched.span
    grid: dict[tuple[UnitClass, int], list[str]] = {
        key: [""] * max(ii, 1) for key in TABLE_ROW_ORDER
    }
    for t, (cls, inst), instr in zip(sched.times, sched.assignments, sched.instrs):
        slot = t % ii if sched.is_loop else t
        cell = instr.op.value
        key = (cls, inst)
        if key not in grid:  # pragma: no cover - all units in row order
            grid[key] = [""] * max(ii, 1)
        if grid[key][slot]:
            grid[key][slot] += "/" + cell
        else:
            grid[key][slot] = cell
    return grid


def render_pipeline_table(sched: Schedule, title: str = "") -> str:
    """ASCII pipeline table in the style of the paper's Tables I–III."""
    grid = pipeline_grid(sched)
    n_cols = len(next(iter(grid.values())))
    name_w = max(len(UNIT_DISPLAY_NAMES[key]) for key in grid)
    col_w = max(
        [len("Cycle %d" % n_cols)]
        + [len(cell) for cells in grid.values() for cell in cells]
    )
    header = ["Cycle".ljust(name_w)] + [
        str(c + 1).center(col_w) for c in range(n_cols)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(header))
    lines.append("-" * len(lines[-1]))
    for key in TABLE_ROW_ORDER:
        cells = grid[key]
        if not any(cells):
            continue
        row = [UNIT_DISPLAY_NAMES[key].ljust(name_w)] + [
            cell.center(col_w) for cell in cells
        ]
        lines.append(" | ".join(row))
    return "\n".join(lines)


def fmac_occupancy(sched: Schedule) -> float:
    """Fraction of vector-FMAC issue slots filled in the steady state.

    This is the quantity the paper's "upper bound performance" discussion
    (Section IV-A3) reasons about: 1.0 when all FMAC pipes issue every
    cycle, 2/3 at the broadcast-limited bound for n_a <= 32.
    """
    if not sched.times:
        return 0.0
    ii = sched.ii if sched.is_loop else sched.span
    fmacs = sum(
        1
        for instr, (cls, _i) in zip(sched.instrs, sched.assignments)
        if cls is UnitClass.VFMAC
    )
    return fmacs / (sched.units.count(UnitClass.VFMAC) * ii)
