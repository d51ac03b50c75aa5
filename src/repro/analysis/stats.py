"""Small statistics helpers for experiment aggregation.

Plain Python like the rest of the package (the library is stdlib only,
and these sample sizes need nothing more) and exact about what they
compute, because the bench tables under ``benchmarks/results/`` quote
their outputs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Summary",
    "geometric_tail_rate",
    "mean",
    "median",
    "quantile",
    "summarize",
]


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``0 <= q <= 1``."""
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    # The a + w*(b - a) form is exact when a == b, unlike a*(1-w) + b*w,
    # which can drift a ulp and break monotonicity across quantiles.
    return ordered[low] + weight * (ordered[high] - ordered[low])


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one measurement series."""

    count: int
    mean: float
    median: float
    p95: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} median={self.median:.1f} "
            f"p95={self.p95:.1f} max={self.maximum:.0f}"
        )


def summarize(values: Sequence[float]) -> Summary:
    return Summary(
        count=len(values),
        mean=mean(values),
        median=median(values),
        p95=quantile(values, 0.95),
        maximum=float(max(values)),
    )


def geometric_tail_rate(latencies: Sequence[int]) -> float:
    """Estimate the per-beat success probability of a geometric tail.

    The paper (after Theorem 2) argues non-convergence probability decays
    exponentially: P(latency > b) ~ (1 - c)^b.  The maximum-likelihood
    estimate of ``c`` for a geometric distribution on {1, 2, ...} is
    ``1 / mean``; we shift latencies to be at least one beat.
    """
    if not latencies:
        raise ValueError("no latencies to fit")
    shifted = [max(1, int(value)) for value in latencies]
    return 1.0 / mean(shifted)
