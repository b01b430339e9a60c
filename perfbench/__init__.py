"""Benchmark of the equilab package; run it as `python3 perfbench/run.py`."""
