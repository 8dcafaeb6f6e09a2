"""Tests for randomness: the ordinal permutation test, two runs-test
variants, and the tail-probability / two-sample-t machinery they need.

The permutation test partitions the series into non-overlapping groups of
t consecutive samples (remainder discarded), maps each group to its
ordinal pattern, and chi-square-tests the t! pattern counts against the
uniform expectation G/t!; t is checked by ``entropy.check_pattern_length``,
the kernel's own limit. Each test's p-value comes from one function:
``chi_square_sf``, ``runs_p_value`` and ``welch_t_test``; the metric table
reads a replication mean's through the first two. The chi-square and t
tails come from ``scipy.special``, imported where they are called.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import erfc, factorial, frexp, isinf, ldexp, sqrt
from typing import Literal, Sequence, get_args

import numpy as np

from .core import DataError, NumericalError, Series
from .entropy import _ordinal_counts, check_pattern_length

__all__ = [
    "PermutationTestResult",
    "RunsTestResult",
    "TTestResult",
    "permutation_test",
    "runs_test",
    "runs_p_value",
    "chi_square_sf",
    "normal_sf",
    "welch_t_test",
]

RunsVariant = Literal["above_below_median", "up_down"]

# classical validity rule: warn when the expected count per category is small
_LOW_EXPECTED = 5.0


def chi_square_sf(x: float, df: float) -> float:
    """Upper-tail probability of the chi-square distribution.

    Regularized upper incomplete gamma Q(df/2, x/2), evaluated by scipy's
    series / continued-fraction implementation.
    """
    from scipy import special

    if x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return float(special.gammaincc(df / 2.0, x / 2.0))


def normal_sf(z: float) -> float:
    """Standard normal upper tail 1 - Phi(z), via the complementary error
    function."""
    return 0.5 * erfc(z / sqrt(2.0))


def runs_p_value(z: float, df: float | None = None) -> float:
    """Two-sided p-value 2 * P(Z > |z|) of a runs-test z; ``df``, which a z
    lacks, lets the metric table call it as it calls ``chi_square_sf``."""
    return 2.0 * normal_sf(abs(z))


@dataclass(frozen=True)
class PermutationTestResult:
    chi_square: float
    df: int
    p_value: float
    group_count: int
    low_expected_warning: bool
    counts: tuple[int, ...] = ()  # observed pattern histogram, length t!


def permutation_test(series: Series, t: int = 5) -> PermutationTestResult:
    """Chi-square test of ordinal-pattern uniformity over disjoint groups.

    Groups start at index 0 and do not overlap; trailing samples that do
    not fill a group are discarded. The groups are the windows of length t
    at step t, so their pattern counts come from the kernel that permutation
    entropy uses (``entropy._ordinal_counts``), and ``counts`` is indexed
    by the same pattern codes. The statistic is computed as
    sum(O^2) * t! / G - G, which is algebraically Pearson's statistic with
    E = G/t! and integer-exact until the final division. The group size t
    must be a whole number in [2, 8], else a ValueError
    (``entropy.check_pattern_length``, which checks permutation entropy's
    tuple size too).
    """
    t = check_pattern_length(t, "group size")
    n = len(series)
    g = n // t
    if g == 0:
        raise DataError(f"no complete group (N={n} < t={t})")
    counts = _ordinal_counts(series.values, t, step=t)
    cats = factorial(t)
    sum_sq = int((counts * counts).sum())
    chi_square = sum_sq * cats / g - g
    df = cats - 1
    expected = g / cats
    return PermutationTestResult(
        chi_square=float(chi_square),
        df=df,
        p_value=chi_square_sf(chi_square, df),
        group_count=g,
        low_expected_warning=expected < _LOW_EXPECTED,
        counts=tuple(counts.tolist()),
    )


def check_runs_variant(variant: str) -> RunsVariant:
    """The runs-test variant; ValueError unless it is one of ``RunsVariant``."""
    if variant not in get_args(RunsVariant):
        raise ValueError(f"unknown runs-test variant: {variant!r}")
    return variant


@dataclass(frozen=True)
class RunsTestResult:
    z: float
    p_value: float
    runs: int
    n_effective: int
    variant: RunsVariant


def _count_runs(signs: np.ndarray) -> int:
    return 1 + int(np.count_nonzero(signs[1:] != signs[:-1]))


def _median(x: np.ndarray) -> float:
    """``np.median(x)`` from one partition at the middle rank: the middle
    value, or the mean of the two middle values. A sum of the two past the
    largest float is inf, as in ``np.median``; only the sign of a zero
    median may differ, which no comparison with it sees."""
    h = x.size // 2
    part = np.partition(x, h)
    return float(part[h] if x.size % 2 else (part[:h].max() + part[h]) / 2)


def runs_test(series: Series, variant: RunsVariant = "above_below_median") -> RunsTestResult:
    """Two-sided z-test on the number of maximal constant-sign runs.

    Each variant picks a sequence and a pivot, and both share one sign
    sequence: the values that differ from the pivot, each marked by
    whether it lies above it. above_below_median takes the samples and
    their median; up_down the successive differences x[i+1] - x[i] and 0.
    Only the moments of the run count differ:

    above_below_median, over n1 signs above and n2 below, n = n1 + n2:
    mu = 2*n1*n2/n + 1, var = 2*n1*n2*(2*n1*n2 - n) / (n^2 * (n-1)).

    up_down, over the n_d retained differences:
    mu = (2*n_d + 1)/3, var = (16*n_d - 29)/90.

    Fewer runs than expected gives negative z, more gives positive.
    """
    variant = check_runs_variant(variant)
    x = series.values
    median = variant == "above_below_median"
    # a median or difference past the largest float is inf; a difference keeps its sign
    with np.errstate(over="ignore"):
        values, pivot = (x, _median(x)) if median else (np.diff(x), 0.0)
    if isinf(pivot):  # the two middle samples sum past the largest float
        pivot = 2.0 * _median(x * 0.5)  # both steps exact for normal numbers
    signs = values[values != pivot] > pivot
    if signs.size == 0:
        raise NumericalError("degenerate series (all values equal the median)" if median
                             else "degenerate series (no nonzero differences)")
    n = int(signs.size)
    runs = _count_runs(signs)
    if median:
        n1 = int(np.count_nonzero(signs))
        two_n1n2 = 2.0 * n1 * (n - n1)
        mu = two_n1n2 / n + 1.0
        var = two_n1n2 * (two_n1n2 - n) / (n * n * (n - 1.0)) if n > 1 else 0.0
    else:
        mu = (2.0 * n + 1.0) / 3.0
        var = (16.0 * n - 29.0) / 90.0
    if var <= 0:
        raise NumericalError(f"sample too small for the runs test (n={n})")
    z = (runs - mu) / sqrt(var)
    return RunsTestResult(
        z=float(z),
        p_value=runs_p_value(z),
        runs=runs,
        n_effective=n,
        variant=variant,
    )


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    df: float
    p_value: float
    mean_a: float
    mean_b: float


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sample Welch t-test (unequal variances), two-sided p-value.

    The tail probability comes from the regularized incomplete beta
    function: P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2), exactly 1 at t = 0.
    A group of fewer than 2 observations, or with one that is not finite,
    is a DataError.
    """
    from scipy import special

    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.size < 2 or xb.size < 2:
        raise DataError("each group needs at least 2 observations")
    for name, x in (("a", xa), ("b", xb)):
        if not np.isfinite(x).all():
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise DataError(f"non-finite observation at index {bad} of group {name}")
    # t and df do not depend on the unit: scale both groups by the power of two
    # that brings the largest |value| into [0.5, 1), so that no variance over-
    # or underflows; a power of two changes no bit of a normal number
    _, exp = frexp(max(np.abs(xa).max(), np.abs(xb).max()))
    xa, xb = np.ldexp(xa, -exp), np.ldexp(xb, -exp)
    va = float(np.var(xa, ddof=1))
    vb = float(np.var(xb, ddof=1))
    if va == 0.0 and vb == 0.0:
        raise NumericalError("degenerate variance in both groups")
    sa = va / xa.size
    sb = vb / xb.size
    se = sqrt(sa + sb)
    mean_a = float(np.mean(xa))
    mean_b = float(np.mean(xb))
    t_stat = (mean_a - mean_b) / se
    df = (sa + sb) ** 2 / (
        sa * sa / (xa.size - 1) + sb * sb / (xb.size - 1)
    )
    p = float(special.betainc(df / 2.0, 0.5, df / (df + t_stat * t_stat)))
    return TTestResult(t_statistic=float(t_stat), df=float(df), p_value=p,
                       mean_a=ldexp(mean_a, exp), mean_b=ldexp(mean_b, exp))
