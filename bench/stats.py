"""Aggregation of per-operation samples into the reported metrics."""

from __future__ import annotations

import math
import statistics

# Errors below one unit in the last place of a double are reported as that unit.
ERROR_FLOOR = 2.0**-53


def gmean_of_medians(samples: dict) -> float:
    """Geometric mean, over cases, of each case's median sample."""
    if not samples:
        raise ValueError("no samples")
    logs = [math.log(statistics.median(v)) for v in samples.values()]
    return math.exp(sum(logs) / len(logs))


def digits(error: float) -> float:
    """-log10 of a relative error, with the error floored at 2^-53."""
    return -math.log10(max(error, ERROR_FLOOR))


def mean_digits(errors: dict) -> float:
    """Mean, over cases, of the digits of each case's largest error."""
    if not errors:
        raise ValueError("no errors")
    return statistics.fmean(digits(max(v)) for v in errors.values())


def mean_of_medians(samples: dict) -> float:
    """Arithmetic mean, over cases, of each case's median (zeros allowed)."""
    if not samples:
        raise ValueError("no samples")
    return statistics.fmean(statistics.median(v) for v in samples.values())


def spread(values: list) -> float:
    """Interquartile distance over the median, as the stability check takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0  # also covers layers a workload never reaches, which read 0
    return (q3 - q1) / med if med else math.inf
