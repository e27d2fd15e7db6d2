"""Measurement and verification: response times, traffic, drop
statistics, cross-replica consistency (Theorem 1), and report tables.
"""

from repro.metrics.consistency import (
    ConsistencyChecker,
    ConsistencyReport,
    check_uniform,
    pairwise_divergence,
)
from repro.metrics.report import Table, format_table

__all__ = [
    "ConsistencyChecker",
    "ConsistencyReport",
    "Table",
    "check_uniform",
    "format_table",
    "pairwise_divergence",
]
