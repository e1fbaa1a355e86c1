"""Experiment reports: the result table and its plain-text formatting."""

from repro.bench.harness import ExperimentResult
from repro.bench.report import format_table

__all__ = ["ExperimentResult", "format_table"]
