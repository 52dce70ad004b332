"""Benchmark of the latspec CLI and library; run perfbench/run.py."""
