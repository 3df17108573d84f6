"""Serialization of generated kernel programs, schedules and kernels.

A generated kernel is ultimately data — instructions, tilings, a schedule.
Serializing it enables:

* persisting a kernel cache across processes (see
  :class:`repro.kernels.registry.KernelDiskCache`),
* diffing generated code between library versions,
* feeding the instruction stream to external tools.

Schedules are stored compactly: only issue times, unit assignments and the
initiation interval are written.  Dependence edges are *recomputed* at load
time (``build_dependences`` is deterministic) and the reloaded schedule is
re-verified with :func:`~repro.isa.scheduler.verify_schedule`, so a stale
or hand-edited file cannot smuggle in an illegal schedule.

Round-trip guarantee: ``program_from_dict(program_to_dict(p))`` produces a
program that renders, schedules and interprets identically, and
``kernel_from_dict(kernel_to_dict(k), core)`` an equivalent kernel
(both tested).
"""

from __future__ import annotations

from ..errors import IsaError
from ..hw.config import DspCoreConfig
from ..isa.instructions import Affine, Instr, MemRef, Opcode
from ..isa.program import KernelProgram, LoopProgram, build_dependences
from ..isa.scheduler import Schedule, verify_schedule
from ..isa.units import UnitClass, UnitFile, units_for
from .generator import BlockInfo, MicroKernel
from .spec import KernelSpec

#: bump when the on-disk kernel layout changes incompatibly.
KERNEL_FORMAT = 1


def _affine_to_dict(a: Affine) -> dict:
    return {"base": a.base, "step": a.step}


def _affine_from_dict(d: dict) -> Affine:
    return Affine(int(d["base"]), int(d["step"]))


def instr_to_dict(instr: Instr) -> dict:
    out: dict = {"op": instr.op.value}
    if instr.dsts:
        out["dsts"] = list(instr.dsts)
    if instr.srcs:
        out["srcs"] = list(instr.srcs)
    if instr.mem is not None:
        out["mem"] = {
            "array": instr.mem.array,
            "row": _affine_to_dict(instr.mem.row),
            "col": _affine_to_dict(instr.mem.col),
        }
    if instr.imm:
        out["imm"] = instr.imm
    if instr.tag:
        out["tag"] = instr.tag
    return out


def instr_from_dict(d: dict) -> Instr:
    try:
        op = Opcode(d["op"])
    except ValueError as exc:
        raise IsaError(f"unknown opcode {d.get('op')!r}") from exc
    mem = None
    if "mem" in d:
        mem = MemRef(
            d["mem"]["array"],
            _affine_from_dict(d["mem"]["row"]),
            _affine_from_dict(d["mem"]["col"]),
        )
    return Instr(
        op,
        dsts=tuple(d.get("dsts", ())),
        srcs=tuple(d.get("srcs", ())),
        mem=mem,
        imm=float(d.get("imm", 0.0)),
        tag=d.get("tag", ""),
    )


def program_to_dict(program: KernelProgram) -> dict:
    return {
        "meta": dict(program.meta),
        "blocks": [
            {
                "row0": block.row0,
                "rows": block.rows,
                "trip": block.trip,
                "setup": [instr_to_dict(i) for i in block.setup],
                "body": [instr_to_dict(i) for i in block.body],
                "teardown": [instr_to_dict(i) for i in block.teardown],
            }
            for block in program.blocks
        ],
    }


def program_from_dict(d: dict) -> KernelProgram:
    blocks = [
        LoopProgram(
            setup=[instr_from_dict(i) for i in raw["setup"]],
            body=[instr_from_dict(i) for i in raw["body"]],
            trip=int(raw["trip"]),
            teardown=[instr_from_dict(i) for i in raw["teardown"]],
            row0=int(raw.get("row0", 0)),
            rows=int(raw.get("rows", 0)),
        )
        for raw in d["blocks"]
    ]
    return KernelProgram(blocks, meta=dict(d.get("meta", {})))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def schedule_to_dict(sched: Schedule) -> dict:
    """Compact schedule: times + assignments + II (edges are recomputed)."""
    return {
        "ii": sched.ii,
        "times": list(sched.times),
        "assignments": [[cls.value, inst] for cls, inst in sched.assignments],
    }


def schedule_from_dict(
    d: dict, instrs: list[Instr], latencies, units: UnitFile
) -> Schedule:
    """Rebuild and *verify* a schedule for ``instrs`` from its dict form."""
    times = [int(t) for t in d["times"]]
    assignments = [
        (UnitClass(cls), int(inst)) for cls, inst in d["assignments"]
    ]
    if len(times) != len(instrs) or len(assignments) != len(instrs):
        raise IsaError(
            f"schedule length mismatch: {len(times)} times / "
            f"{len(assignments)} assignments for {len(instrs)} instructions"
        )
    ii = int(d["ii"])
    if not instrs:
        return Schedule([], [], [], 0, [], units)
    edges = build_dependences(instrs, latencies, loop=ii > 0)
    sched = Schedule(instrs, times, assignments, ii, edges, units)
    verify_schedule(sched, latencies)
    return sched


# ---------------------------------------------------------------------------
# whole kernels
# ---------------------------------------------------------------------------


def _block_info_to_dict(info: BlockInfo) -> dict:
    return {
        "row0": info.row0,
        "m_u": info.m_u,
        "k_u": info.k_u,
        "trip": info.trip,
        "ii": info.ii,
        "setup_cycles": info.setup_cycles,
        "body_cycles": info.body_cycles,
        "teardown_cycles": info.teardown_cycles,
    }


def kernel_to_dict(kern: MicroKernel) -> dict:
    """Serialize a generated kernel (program + schedules + cycle model).

    The core configuration is deliberately *not* stored: the disk cache
    keys on it, and the loader receives it explicitly, so a kernel can
    never be silently rehydrated against the wrong machine.
    """
    return {
        "format": KERNEL_FORMAT,
        "spec": {
            "m_s": kern.spec.m_s,
            "n_a": kern.spec.n_a,
            "k_a": kern.spec.k_a,
            "dtype": kern.spec.dtype,
        },
        "name": kern.name,
        "cycles": kern.cycles,
        "compute_n": kern.compute_n,
        "compute_k": kern.compute_k,
        "program": program_to_dict(kern.program),
        "blocks": [_block_info_to_dict(i) for i in kern.blocks],
        "setup_schedules": [schedule_to_dict(s) for s in kern.setup_schedules],
        "body_schedules": [schedule_to_dict(s) for s in kern.body_schedules],
        "teardown_schedules": [
            schedule_to_dict(s) for s in kern.teardown_schedules
        ],
    }


def kernel_from_dict(d: dict, core: DspCoreConfig) -> MicroKernel:
    """Rehydrate a kernel for ``core``; every schedule is re-verified."""
    if d.get("format") != KERNEL_FORMAT:
        raise IsaError(
            f"unsupported kernel format {d.get('format')!r}; "
            f"expected {KERNEL_FORMAT}"
        )
    spec = KernelSpec(**{k: d["spec"][k] for k in ("m_s", "n_a", "k_a", "dtype")})
    program = program_from_dict(d["program"])
    n_blocks = len(program.blocks)
    for key in ("setup_schedules", "body_schedules", "teardown_schedules"):
        if len(d[key]) != n_blocks:
            raise IsaError(
                f"{key}: {len(d[key])} entries for {n_blocks} blocks"
            )
    units = units_for(core)
    lat = core.latencies
    setup_scheds = [
        schedule_from_dict(s, blk.setup, lat, units)
        for s, blk in zip(d["setup_schedules"], program.blocks)
    ]
    body_scheds = [
        schedule_from_dict(s, blk.body, lat, units)
        for s, blk in zip(d["body_schedules"], program.blocks)
    ]
    teardown_scheds = [
        schedule_from_dict(s, blk.teardown, lat, units)
        for s, blk in zip(d["teardown_schedules"], program.blocks)
    ]
    blocks = [BlockInfo(**raw) for raw in d["blocks"]]
    return MicroKernel(
        spec=spec,
        core=core,
        program=program,
        body_schedules=body_scheds,
        setup_schedules=setup_scheds,
        teardown_schedules=teardown_scheds,
        blocks=blocks,
        cycles=int(d["cycles"]),
        compute_n=int(d["compute_n"]),
        compute_k=int(d["compute_k"]),
        name=str(d["name"]),
    )
