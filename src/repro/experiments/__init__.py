"""Experiment harness: one module per table/figure of the paper.

Each module exposes a ``run_*`` function returning structured results
plus a rendered plain-text table/chart, so the same code backs the
pytest-benchmark targets in ``benchmarks/``, the runnable examples,
and the regression tests. Import each runner from its module
(``from repro.experiments.fig9_ecn import run_fig9``): the package
loads nothing, so a serving run does not import the mission stack.
See DESIGN.md §4 for the experiment index.
"""
