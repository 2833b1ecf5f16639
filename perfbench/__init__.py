"""Benchmark of the MIDAS reproduction; entry point ``perfbench/run.py``."""
