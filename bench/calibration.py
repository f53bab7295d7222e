"""Machine-speed calibration for the benchmark's end-to-end times.

On a shared machine the speed of one core drifts: over minutes the same
pure-Python work takes up to a third longer (other tenants' load on shared
cores and caches, not time stolen from the process, so CPU time drifts
alike).  Raw medians of whole runs then spread by 15-30% between runs.

A fixed pure-Python loop that does what satloc spends its time on
(recursive tuple building, hashing, dict inserts) and shares no code with it
is timed after every slice of the run (and every set-up repetition).  Each
slice's times are scaled by REFERENCE_S / (median of the loop timings just
before and after the slice and the next one), which gives seconds on a
machine where the loop takes REFERENCE_S.  The speed often switches between
a fast and a slow state within a run, so a factor per slice follows it where
one factor per run cannot; the median of three timings keeps one noisy
timing out.  Measured on a 2-core shared VM over eight `chain` runs, the
spread (quartile distance over median) of saturate, verify, p50, p90 and
queries/s was 20/8/15/6/10% raw, 8/4/12/5/10% with one factor per run,
6/7/6/14/6% with the two timings around each slice, and 7/6/8/9/5% with
this rule.  A change to satloc cannot move the loop, so the scaled times
still move with satloc.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.05


def _walk(t: int, depth: int) -> tuple:
    if depth == 0:
        return (t,)
    return (t, _walk(t + 1, depth - 1), _walk(t * 2 % 97, depth - 1))


def loop_seconds() -> float:
    """Time one run of the calibration loop."""
    start = perf_counter()
    table: dict = {}
    for i in range(1500):
        if len(table) == 100:
            table.clear()  # keep the loop's memory out of peak_rss_mb
        table[_walk(i, 6)] = i
    return perf_counter() - start


class Speed:
    """Loop timings taken through a run, and the scale factors they give."""

    def __init__(self) -> None:
        self.timings: list[float] = []

    def sample(self) -> int:
        """Time the loop now; return the timing's index."""
        self.timings.append(loop_seconds())
        return len(self.timings) - 1

    def factor(self, index: int) -> float:
        """Scale factor to reference seconds for work done just before the
        loop timing at index: from the median of that timing and its two
        neighbours, so one noisy timing does not move it."""
        return REFERENCE_S / statistics.median(self.timings[max(0, index - 1) : index + 2])
