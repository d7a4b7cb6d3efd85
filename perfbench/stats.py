"""Order statistics and the failure tally shared by every workload.

Timings are summarized as a median plus the highest percentile of a fixed
ladder that still has at least ``MIN_BEYOND`` samples beyond it, so a tail
figure is never read off a handful of points.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

# percentile ladder in tenths of a percent: p50, p90, p99, p99.9
LADDER = (500, 900, 990, 999)
MIN_BEYOND = 10


def beyond(n: int, q10: int) -> int:
    """Samples strictly above the q10/10-th percentile of n samples."""
    return n * (1000 - q10) // 1000


def tail_percentile(n: int) -> Optional[int]:
    """Highest ladder percentile (in tenths) with >= MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    best = None
    for q10 in LADDER:
        if beyond(n, q10) >= MIN_BEYOND:
            best = q10
    return best


def samples_needed(q10: int) -> int:
    """Smallest n for which the q10 percentile has MIN_BEYOND samples beyond."""
    n = MIN_BEYOND
    while beyond(n, q10) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class Tally:
    """Checked outputs: each ``check`` is one attempt, failed if it found
    any problem.  The first few problems are kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, what: str, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{what}: {problems[0]}")
        return not problems

    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
