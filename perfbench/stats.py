"""Summary statistics shared by the benchmark and its compare mode."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail(values: Sequence[float]) -> tuple[float, int, int]:
    """(value, percentile, sample count) of the highest percentile with ten samples beyond it.

    Uses nearest rank. With fewer than 20 samples no percentile at or above the
    median has ten samples beyond it; the maximum is reported as p100 instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100, n
    percentile = (100 * (n - 10)) // n
    rank = math.ceil(percentile * n / 100)
    return ordered[rank - 1], percentile, n
