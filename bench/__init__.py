"""Benchmark harness for gspmax; run it with bench/run.py."""
