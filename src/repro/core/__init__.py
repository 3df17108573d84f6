"""ftIMM — the paper's primary contribution.

Shape taxonomy (:mod:`~repro.core.shapes`), CMR-driven blocking
(:mod:`~repro.core.blocking`), dynamic adjusting (:mod:`~repro.core.tuner`),
the three algorithm drivers (:mod:`~repro.core.tgemm`,
:mod:`~repro.core.parallel_m`, :mod:`~repro.core.parallel_k`) lowering
through :mod:`~repro.core.lowering` to the op-stream IR
(:mod:`~repro.core.plans`), and the public entry points
(:mod:`~repro.core.ftimm`).  Extensions: grouped GEMM
(:mod:`~repro.core.batched`), model-driven tuning
(:mod:`~repro.core.autotune`, :mod:`~repro.core.plan_search`),
multi-cluster (:mod:`~repro.core.multi_cluster`) and CPU + DSP
co-execution (:mod:`~repro.core.hetero`).
"""
