"""Order statistics shared by the harness and ``compare.py``.

Latencies use nearest-rank quantiles (every reported value is a sample
that was actually observed); run-to-run summaries use the quartiles of
:func:`statistics.quantiles`, the definition the acceptance rule for the
benchmark's spread is written against.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank method.

    The smallest sample such that at least ``q`` of all samples are
    less than or equal to it: ``sorted(values)[ceil(q * n) - 1]``.
    """
    if not values:
        raise ValueError("nearest_rank of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-quantile.

    A percentile is only trustworthy when enough samples sit past it;
    the harness prints this count next to every latency quantile.
    """
    return n - max(1, math.ceil(q * n))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
