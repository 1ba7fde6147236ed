"""Layer-attributed end-to-end benchmark of the ``repro`` simulator.

See ``bench/README.md`` and ``BENCHMARK.json`` at the repository root.
"""
