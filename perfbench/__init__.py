"""Benchmark harness for planebranch; run it through perfbench/run.py."""
