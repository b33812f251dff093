"""The repo's one benchmark: six workloads, measured from outside.

``python3 benchmarks/suite/run.py`` (or ``python -m benchmarks.suite``)
runs it; ``BENCHMARK.json`` at the repo root is its contract and
``README.md`` next to this file explains every workload and metric.
Everything here drives ``repro`` through its public API only.
"""
