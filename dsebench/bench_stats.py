"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks.

    The same definition as NumPy's default: rank ``q/100 * (n - 1)`` into
    the sorted values, interpolated between its neighbours.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many values lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def speed_scale(probes: Sequence[float], reference: float) -> float:
    """Factor from times taken while the probe loop took ``probes`` seconds
    to times on a host where it takes ``reference`` seconds."""
    if not probes or min(probes) <= 0:
        raise ValueError("speed_scale needs positive probe times")
    return reference / statistics.fmean(probes)
