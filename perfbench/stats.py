"""Order statistics for per-item latencies.

Percentiles are whole numbers and use the nearest-rank definition on the
sorted samples, so the rank arithmetic is exact.
"""

from __future__ import annotations

# highest first; the tail is the first one that leaves at least
# TAIL_MIN_BEYOND samples above it
TAIL_LADDER = tuple(range(99, 49, -1))
TAIL_MIN_BEYOND = 10


def rank(pct: int, n: int) -> int:
    """1-based nearest rank of the percentile among n samples."""
    return max(1, -(-pct * n // 100))


def percentile(sorted_values, pct: int) -> float:
    return sorted_values[rank(pct, len(sorted_values)) - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail_percentile(n: int) -> int | None:
    """Highest ladder percentile with at least ten samples beyond it, or
    None when n is too small for any of them."""
    for pct in TAIL_LADDER:
        if n - rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct
    return None


def tail(values) -> dict:
    """The tail latency with the percentile it sits at and the sample
    counts; with too few samples for the ladder it is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    pct = tail_percentile(n)
    if pct is None:
        return {"value": ordered[-1], "label": "max", "n": n, "beyond": 0}
    return {"value": percentile(ordered, pct), "label": f"p{pct}", "n": n,
            "beyond": n - rank(pct, n)}
