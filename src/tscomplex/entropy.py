"""Sample entropy, normalized permutation entropy, and the multi-scale sweep.

Sample entropy counts template pairs under the Chebyshev (max-coordinate)
distance with non-strict matching (distance <= r) and no self-matches. The
counts are exact and sub-quadratic: a kd-tree over the distinct templates,
each weighted by its multiplicity, counts the neighbour pairs, so series of
~100k points (24-hour RR-interval recordings) take seconds. The default
tolerance is a multiple of the series' sample SD (``core.sample_sd``).
Permutation entropy histograms ordinal patterns of overlapping windows,
with ties broken toward the earlier index (stable sort), and is always
normalized: the Shannon entropy is divided by ln(n!), so it lies in [0, 1].
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial, log
from typing import Literal, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from .core import (
    DataError,
    Metric,
    MetricResult,
    NumericalError,
    Series,
    coarse_grain,
    sample_sd,
)

__all__ = [
    "SampEnParams",
    "SampEnResult",
    "PermEnParams",
    "MseProfile",
    "sample_entropy",
    "permutation_entropy",
    "ordinal_pattern_codes",
    "ordinal_pattern_counts",
    "mse_sweep",
]

@dataclass(frozen=True)
class SampEnParams:
    """Sample-entropy parameters.

    ``r_mode="per_input_sd"``: tolerance is ``r_factor`` times the sample
    standard deviation (divisor n-1) of the input series.
    ``r_mode="absolute"``: ``r_factor`` is used directly as the tolerance.
    """

    m: int = 2
    r_factor: float = 0.2
    r_mode: Literal["per_input_sd", "absolute"] = "per_input_sd"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"embedding length must be >= 1, got {self.m}")
        if self.r_factor <= 0:
            raise ValueError(f"tolerance must be positive, got {self.r_factor}")
        if self.r_mode not in ("per_input_sd", "absolute"):
            raise ValueError(f"unknown tolerance mode {self.r_mode!r}; "
                             "choose per_input_sd or absolute")

    def tolerance(self, series: Series) -> float:
        if self.r_mode == "absolute":
            return float(self.r_factor)
        return self.r_factor * sample_sd(series)


@dataclass(frozen=True)
class SampEnResult:
    """-ln(a_count / b_count) plus the raw pair counts behind it."""

    value: float
    a_count: int
    b_count: int
    r: float


def _pair_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """Count template pairs (i < j) matching at lengths m and m+1.

    Both lengths draw their templates from start indices 0 .. N-m-1, so
    every length-m template has a length-(m+1) extension and A <= B holds
    structurally.

    For each length, identical templates are collapsed into one point
    weighted by its multiplicity, and a kd-tree over the distinct points
    counts the weighted ordered pairs within Chebyshev distance r,
    self-pairs included; removing the nt self-pairs and halving gives the
    unordered count. Collapsing keeps the tree splittable on tie-heavy
    input (quantized or binary series), where a tree over the raw
    templates cannot separate identical points and degenerates to
    quadratic time.

    The counts are exact. The tree decides a point pair by comparing the
    same rounded coordinate differences with r that the definition does,
    so distances exactly equal to r still match, and it counts or prunes a
    whole node pair only on bounding-box distances, which bound every
    point distance inside also after rounding. Memory is O(N) for fixed m.
    """
    nt = x.size - m
    counts = []
    for k in (m, m + 1):
        # one opaque k*8-byte key per template, so that np.unique sorts
        # bytes rather than k-field records; -0.0 and 0.0 stay apart, which
        # changes no count
        rows = np.ascontiguousarray(sliding_window_view(x, k)[:nt])
        keys, weights = np.unique(rows.view(np.dtype((np.void, rows.itemsize * k))),
                                  return_counts=True)
        templates = keys.view(np.float64).reshape(-1, k)
        # sliding-midpoint splits keep the cells compact on clustered
        # templates, such as those of a noisy periodic orbit, where median
        # splits leave thin cells that prune poorly
        tree = cKDTree(templates, balanced_tree=False)
        # the weights are summed as floats; every partial sum is an integer
        # below nt**2 < 2**53, so the total is exact
        total = tree.count_neighbors(tree, r, p=np.inf, weights=weights)
        counts.append((int(total) - nt) // 2)
    b, a = counts
    return a, b


def sample_entropy(series: Series, params: SampEnParams = SampEnParams()) -> SampEnResult:
    """Sample entropy: -ln(A/B) over matching template pairs.

    Raises NumericalError when the tolerance degenerates to zero (constant
    series under per-input-SD mode) or when either count is zero.
    """
    n = len(series)
    if n < params.m + 2:
        raise DataError(f"series of length {n} too short for m={params.m}")
    r = params.tolerance(series)
    if r <= 0:
        raise NumericalError("degenerate tolerance (r = 0)")
    a, b = _pair_counts(series.values, params.m, r)
    if a == 0 or b == 0:
        err = NumericalError(f"insufficient matches (A={a}, B={b})")
        err.a_count = a
        err.b_count = b
        raise err
    # + 0.0 normalizes the -0.0 that -log(1.0) produces when A == B
    return SampEnResult(value=-log(a / b) + 0.0, a_count=a, b_count=b, r=r)


@dataclass(frozen=True)
class PermEnParams:
    n: int = 5

    def __post_init__(self):
        if not 2 <= self.n <= 8:
            raise ValueError(f"tuple size must be in [2, 8], got {self.n}")


def ordinal_pattern_codes(windows: np.ndarray) -> np.ndarray:
    """Map each row of ``windows`` to its ordinal-pattern code in [0, n!).

    The pattern is the stable ascending argsort of the row (equal values
    rank by original position, earlier first), packed into a Lehmer code.
    """
    n = windows.shape[1]
    sigma = np.argsort(windows, axis=1, kind="stable")
    codes = np.zeros(windows.shape[0], dtype=np.int64)
    for i in range(n - 1):
        larger = (sigma[:, i + 1:] < sigma[:, i:i + 1]).sum(axis=1)
        codes = codes * (n - i) + larger
    return codes


def ordinal_pattern_counts(series: Series, n: int) -> np.ndarray:
    """Histogram of ordinal patterns over the N-n+1 overlapping windows.

    Dense array of n! counters; sums to N-n+1 exactly.
    """
    if len(series) < n:
        raise DataError(f"series shorter than tuple (N={len(series)}, n={n})")
    windows = sliding_window_view(series.values, n)
    codes = ordinal_pattern_codes(windows)
    return np.bincount(codes, minlength=factorial(n))


def permutation_entropy(series: Series, params: PermEnParams = PermEnParams()) -> float:
    """Shannon entropy (natural log) of the ordinal-pattern distribution,
    divided by its maximum ln(n!)."""
    counts = ordinal_pattern_counts(series, params.n)
    total = counts.sum()
    p = counts[counts > 0] / total
    # + 0.0 normalizes the -0.0 that a single pattern (p = 1) produces
    h = float(-(p * np.log(p)).sum()) + 0.0
    return h / log(factorial(params.n))


@dataclass(frozen=True)
class MseProfile:
    """Metric results of one multi-scale sweep, keyed by (scale, metric name)."""

    scales: tuple[int, ...]
    metrics: tuple[str, ...]
    results: Mapping[tuple[int, str], MetricResult]

    def values(self, metric: str) -> list[float]:
        return [self.results[(s, metric)].value for s in self.scales]


def mse_sweep(
    series: Series,
    scales: Sequence[int],
    metrics: Sequence[Metric],
    *,
    partial: Literal["drop", "mean"] = "drop",
) -> MseProfile:
    """Coarse-grain the series at each scale and evaluate every metric.

    This is the package's single evaluation path: every score the CLI and
    the reproduction harness report comes from here, and scale-1 scoring
    is a sweep over ``(1,)``. Metrics that derive tolerances from their
    input (sample entropy in per-input-SD mode) recompute them from each
    down-sampled series. A metric failure at one scale is
    recorded in that cell as a NaN result with the error message attached;
    the sweep continues.
    """
    if len(scales) == 0:
        raise DataError("empty scale list")
    ordered = [int(s) for s in scales]
    if ordered != sorted(set(ordered)):
        raise DataError("scales must be strictly increasing")
    for s in (ordered[0], ordered[-1]):
        if s < 1 or s > len(series):
            raise DataError(f"invalid scale {s} for series of length {len(series)}")
    results: dict[tuple[int, str], MetricResult] = {}
    for scale in ordered:
        grained = coarse_grain(series, scale, partial=partial)
        for metric in metrics:
            try:
                results[(scale, metric.name)] = metric(grained)
            except (DataError, NumericalError) as exc:
                results[(scale, metric.name)] = MetricResult(
                    metric=metric.name, value=float("nan"),
                    warnings=(f"error: {exc}",),
                )
    return MseProfile(
        scales=tuple(ordered),
        metrics=tuple(m.name for m in metrics),
        results=results,
    )
