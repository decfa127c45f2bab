"""Summary statistics and output rules shared by the benchmark's files.

Stdlib only: ``run.py`` imports this module without importing ``repro``
so the ``run.py`` process stays small and its own start-up never counts
against the program under test.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Optional, Sequence, Tuple

__all__ = [
    "METRIC_NAME",
    "check_metric_name",
    "interval_union",
    "median",
    "rate",
    "relative_spread",
    "tail_percentile",
]

#: What a metric name may look like in ``BENCHMARK.json`` and in the
#: result line: it starts with a letter or digit and has at most 64
#: letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not isinstance(name, str) or METRIC_NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def rate(runs: Sequence[Tuple[float, float]]) -> float:
    """Work per second over timed runs given as ``(work, seconds)`` pairs.

    The ratio of the sums, not a median of per-run rates: the host's
    speed changes in spells of seconds, and a median of a few runs
    jumps between the fast and the slow spell where this total moves
    with the share of time spent in each.
    """
    seconds = sum(s for _, s in runs)
    if seconds <= 0:
        raise ValueError("no timed runs")
    return sum(w for w, _ in runs) / seconds


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)`` (the
    default exclusive method), the rule the benchmark's stability
    check is stated in.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def tail_percentile(
    samples: Sequence[float], min_beyond: int = 10
) -> Optional[Tuple[int, float, int]]:
    """The highest whole percentile with ``min_beyond`` samples above it.

    Uses the nearest-rank definition: percentile ``p`` of ``N`` sorted
    samples is the ``ceil(p * N / 100)``-th smallest, and the samples
    beyond it are the ``N - rank`` larger ones.  Returns ``(p, value,
    beyond)``, or ``None`` when fewer than ``min_beyond + 1`` samples
    exist (no percentile has enough samples beyond it).
    """
    n = len(samples)
    if n <= min_beyond:
        return None
    ordered = sorted(samples)
    p = (100 * (n - min_beyond)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, float(ordered[rank - 1]), n - rank


def interval_union(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total
