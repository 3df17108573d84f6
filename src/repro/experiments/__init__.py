"""Experiment drivers, one per table/figure of the paper's evaluation.

Each module exposes ``run(machine=None) -> list[ExperimentResult]`` and a
``main()`` CLI; :data:`~repro.experiments.run_all.MODULES` lists them, and
:mod:`~repro.experiments.run_all` regenerates ``EXPERIMENTS.md`` from all
of them.
"""
