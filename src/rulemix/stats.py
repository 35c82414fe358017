"""Paired comparison of error samples with the Wilcoxon signed-rank test.

For small samples the two-sided p-value is exact: the null distribution
of the signed-rank sum is built by dynamic programming over the ranks,
which enumerates all 2^n sign assignments implicitly and handles tied
(averaged) ranks exactly, since doubling turns every rank into an
integer. Larger samples use the normal approximation with tie
correction and continuity correction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTestError

EXACT_MAX_N = 25
"""Largest number of non-zero differences handled exactly."""


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties replaced by the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2)[inverse]


def _exact_two_sided_p(ranks: np.ndarray, statistic: float) -> float:
    """P(W <= statistic) + P(W >= total - statistic) under the null.

    Works on doubled ranks so every value is an integer even with
    averaged ties. Counts stay below 2^n <= 2^EXACT_MAX_N, which doubles
    exactly in floating point.
    """
    doubled = np.rint(2.0 * ranks).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for rank in doubled:
        shifted = np.zeros_like(counts)
        shifted[rank:] = counts[: counts.shape[0] - rank]
        counts = counts + shifted
    threshold = int(round(2.0 * statistic))
    lower_tail = counts[: threshold + 1].sum()
    upper_tail = counts[total - threshold :].sum()
    return min(1.0, (lower_tail + upper_tail) / 2.0 ** len(doubled))


def _normal_two_sided_p(ranks: np.ndarray, statistic: float) -> float:
    """Normal approximation with tie-corrected variance and continuity
    correction, two-sided."""
    n = ranks.shape[0]
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    variance -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    if variance <= 0:
        raise DegenerateTestError("all differences are tied; the test statistic has no variance")
    z = (statistic - mean + 0.5) / math.sqrt(variance)
    return min(1.0, math.erfc(-z / math.sqrt(2.0)))


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences share
    averaged ranks. The statistic is the smaller of the positive- and
    negative-rank sums. Exact p-value up to EXACT_MAX_N non-zero
    differences, normal approximation beyond.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"samples must be 1-d and of equal length, got shapes {a.shape} and {b.shape}")
    if a.shape[0] < 5:
        raise ValueError(f"need at least 5 pairs, got {a.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")

    differences = a - b
    differences = differences[differences != 0.0]
    if differences.shape[0] == 0:
        raise DegenerateTestError("all paired differences are zero")

    ranks = _average_ranks(np.abs(differences))
    positive_sum = float(ranks[differences > 0].sum())
    negative_sum = float(ranks[differences < 0].sum())
    statistic = min(positive_sum, negative_sum)

    if differences.shape[0] <= EXACT_MAX_N:
        p_value = _exact_two_sided_p(ranks, statistic)
    else:
        p_value = _normal_two_sided_p(ranks, statistic)
    return WilcoxonResult(statistic=statistic, p_value=p_value)
