"""Hardware model of the FT-m7032 GPDSP cluster.

Submodules:

* :mod:`repro.hw.config` — machine parameters (the reference ``FT_M7032``).
* :mod:`repro.hw.memory` — software-managed memory spaces with capacity
  enforcement.
* :mod:`repro.hw.event_sim` — the discrete-event simulation kernel.
* :mod:`repro.hw.bandwidth` — shared (processor-sharing) bandwidth channels.
* :mod:`repro.hw.dma` — DMA descriptors and the engine that times them.
* :mod:`repro.hw.cluster` — cluster assemblies for functional and timed runs.
"""
