"""The repo's one migration benchmark (see README.md in this directory).

``PYTHONPATH=src python -m benchmarks.suite run`` prints every end-to-end
and per-layer metric for the seven workloads; ``BENCHMARK.json`` at the
repo root names ``benchmarks/suite/run.py`` as the one-workload entry the
PR driver runs.  Everything is timed from outside, through the public
functions of ``repro``; nothing in ``src/`` is toggled or patched.
"""
