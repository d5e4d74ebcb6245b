"""Shared timing arithmetic: medians, supported percentiles, lateness.

Every latency the benchmark reports goes through :func:`summarize`.  A
percentile is reported only when at least :data:`MIN_TAIL` samples lie
beyond it; asking for one the samples cannot support raises
:class:`UnsupportedPercentile` instead of returning a maximum dressed up
as a tail.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


class UnsupportedPercentile(ValueError):
    """The sample count cannot support the requested percentile."""


def required_samples(q: float) -> int:
    """Smallest sample count that leaves ``MIN_TAIL`` samples beyond ``q``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must lie in (0, 1), got {q}")
    return math.ceil(round(MIN_TAIL / (1.0 - q), 9))


def percentile(samples, q: float) -> float:
    """The ``q`` quantile (nearest rank), refused below ``MIN_TAIL`` beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < required_samples(q):
        raise UnsupportedPercentile(
            f"p{q * 100:g} needs {required_samples(q)} samples "
            f"({MIN_TAIL} beyond it); have {n}"
        )
    rank = max(1, math.ceil(q * n))
    return ordered[rank - 1]


def highest_supported(n: int) -> float | None:
    """The highest of p50/p90/p95/p99/p99.9 that ``n`` samples support."""
    best = None
    for q in (0.5, 0.9, 0.95, 0.99, 0.999):
        if n >= required_samples(q):
            best = q
    return best


def summarize(samples) -> dict:
    """Median, highest supported percentile, and the sample count."""
    samples = list(samples)
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if samples else None}
    q = highest_supported(n)
    if q is not None and q > 0.5:
        out["q"] = q
        out["value"] = percentile(samples, q)
    return out


def lateness(due, sent) -> list[float]:
    """Per-operation lateness of an open-loop generator (seconds, >= 0).

    ``due[i]`` is when operation ``i`` was scheduled, ``sent[i]`` when
    the generator actually issued it; a stalled generator shows up here
    rather than silently thinning the offered load.
    """
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def lateness_report(due, sent) -> dict:
    """:func:`summarize` over :func:`lateness`, plus the worst case."""
    late = lateness(due, sent)
    out = summarize(late)
    out["max"] = max(late) if late else 0.0
    return out
