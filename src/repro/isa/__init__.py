"""Symbolic ISA, VLIW scheduling, interpretation and rendering.

The pipeline: the kernel generator (:mod:`repro.kernels`) emits
:class:`~repro.isa.instructions.Instr` sequences over the core's units
(:mod:`repro.isa.units`), grouped into loop programs
(:mod:`repro.isa.program`) and checked statically
(:mod:`repro.isa.validator`); the modulo scheduler
(:mod:`repro.isa.scheduler`) packs loop bodies into the core's issue slots
yielding the initiation interval that drives the cycle model; the
interpreter (:mod:`repro.isa.interp`) executes programs functionally, and
:mod:`repro.isa.compile` trace-compiles them to NumPy for speed; the
emitter (:mod:`repro.isa.emitter`) renders assembly and the paper-style
pipeline tables.
"""
