"""Nonparametric comparison tools for run samples.

The mean every replication and run average goes through, descriptive
summaries, the paired Wilcoxon signed-rank test (an exact count of the sign
assignments at every sample size) and Friedman mean-rank tables. Pure
functions over plain sequences, no state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FriedmanTable",
    "PairedTestResult",
    "SampleSummary",
    "average_ranks",
    "friedman_ranks",
    "mean",
    "summarize",
    "wilcoxon_signed_rank",
]

@dataclass(frozen=True)
class SampleSummary:
    mean: float
    std_dev: float
    minimum: float
    median: float
    maximum: float
    n: int


@dataclass(frozen=True)
class PairedTestResult:
    statistic: float
    p_value: float
    n_effective: int
    significant_at_05: bool


@dataclass(frozen=True)
class FriedmanTable:
    mean_ranks: tuple
    blocks: int
    statistic: float


def mean(values) -> float:
    """Arithmetic mean, added left to right from 0.0; ValueError when empty."""
    # not sum(): it compensates from Python 3.12 on, which moves the last bits
    total, n = 0.0, 0
    for n, v in enumerate(values, 1):
        total += v
    if not n:
        raise ValueError("mean of no values")
    return float(total) / n


def summarize(sample) -> SampleSummary:
    """Mean, sample standard deviation (n-1 denominator) and order stats.

    A singleton sample gets std_dev 0. The median of an even-length sample
    is the midpoint of the central pair; a sample holding a nan has a nan
    median. That is np.median's value, taken from a sort because np.median's
    nan check imports numpy.ma.
    """
    values = np.asarray(list(sample), dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty sample")
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    ordered = np.sort(values)  # nans sort last
    mid = values.size // 2
    if np.isnan(ordered[-1]):
        median = float("nan")
    elif values.size % 2:
        median = float(ordered[mid])
    else:
        median = (float(ordered[mid - 1]) + float(ordered[mid])) / 2
    return SampleSummary(
        mean=float(values.mean()),
        std_dev=std,
        minimum=float(values.min()),
        median=median,
        maximum=float(values.max()),
        n=int(values.size),
    )


def average_ranks(values) -> np.ndarray:
    """Ascending ranks starting at 1; tied values share the average rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) hold one tied group
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_two_sided_p(doubled_ranks, doubled_w_plus: int) -> float:
    """Exact p over all sign assignments, in integer arithmetic.

    Ranks are doubled so that tie-averaged half-integer ranks become
    integers; counts[w] is the number of assignments with doubled W+ = w.
    Each rank r adds the counts shifted by r, up to the running rank sum.
    """
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    top = 0
    for r in doubled_ranks:
        top += r
        counts[r : top + 1] = [x + y for x, y in zip(counts[r : top + 1], counts[: top + 1 - r])]
    num_le = sum(counts[: doubled_w_plus + 1])
    num_ge = sum(counts[doubled_w_plus:])
    n_assignments = 1 << len(doubled_ranks)
    return min(2 * min(num_le, num_ge), n_assignments) / n_assignments


def wilcoxon_signed_rank(a, b) -> PairedTestResult:
    """Two-sided paired signed-rank test of a against b, paired by index.

    Zero differences are dropped; tied absolute differences get average
    ranks. The p-value counts all 2^n sign assignments of the n effective
    pairs exactly, ties included, at every n. The reported statistic is
    min(W+, W-).
    """
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    if len(a) != len(b):
        raise ValueError("samples must have equal length")
    if len(a) < 2:
        raise ValueError("need at least 2 pairs")

    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        return PairedTestResult(0.0, 1.0, 0, False)

    ranks = average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    statistic = min(w_plus, w_minus)

    doubled = [int(round(2.0 * r)) for r in ranks]
    p = _exact_two_sided_p(doubled, int(round(2.0 * w_plus)))
    return PairedTestResult(statistic, p, n, p < 0.05)


def friedman_ranks(results) -> FriedmanTable:
    """Friedman mean ranks over a blocks x algorithms matrix (lower = better).

    Within each block algorithms are ranked 1 = best with ties averaged.
    The statistic is the Friedman chi-square. It carries no tie
    correction: on blocks with tied values it is smaller than
    scipy.stats.friedmanchisquare by the factor
    1 - sum(t^3 - t) / (b k (k^2 - 1)) over the tied groups.
    """
    rows = [list(map(float, row)) for row in results]
    if len(rows) < 2:
        raise ValueError("need at least 2 blocks")
    k = len(rows[0])
    if k < 2:
        raise ValueError("need at least 2 algorithms")
    if any(len(row) != k for row in rows):
        raise ValueError("ragged matrix: all blocks must cover the same algorithms")

    matrix = np.array(rows, dtype=float)
    b = matrix.shape[0]
    rank_rows = np.vstack([average_ranks(row) for row in matrix])
    mean_ranks = rank_rows.mean(axis=0)

    rank_sums = rank_rows.sum(axis=0)
    chi2 = 12.0 / (b * k * (k + 1)) * float(np.sum(rank_sums**2)) - 3.0 * b * (k + 1)
    return FriedmanTable(tuple(float(r) for r in mean_ranks), b, chi2)
