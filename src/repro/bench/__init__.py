"""Shared benchmark harness: experiment runners and result tables."""

from repro.bench.harness import BenchResult, save_table, time_call

__all__ = ["BenchResult", "save_table", "time_call"]
