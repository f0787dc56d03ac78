"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run it through ``perfbench/run.py``; ``perfbench/README.md`` documents the
workloads, the metrics and the layer map.
"""
