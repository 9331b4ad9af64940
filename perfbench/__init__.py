"""End-to-end and per-layer benchmark of the MM database.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, metrics and reference figures.
"""
