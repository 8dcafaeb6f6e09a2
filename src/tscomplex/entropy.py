"""Sample entropy, normalized permutation entropy, and the multi-scale sweeps.

Sample entropy counts template pairs under the Chebyshev (max-coordinate)
distance with non-strict matching (distance <= r) and no self-matches. The
counts are exact and sub-quadratic: a kd-tree over the distinct templates,
each weighted by its multiplicity, counts the neighbour pairs in bulk, or
lists them at length m+1 when the length-m count finds few matches per
template, so series of ~100k points (24-hour RR-interval recordings) take
seconds. The tree is scipy's ``cKDTree``, imported where the first tree is
built, so that importing this module loads no scipy. The default
tolerance is a multiple of the series' sample SD (``core.sample_sd``).
Permutation entropy histograms the ordinal patterns of overlapping windows,
with ties broken toward the earlier index (stable sort), and is always
normalized: the Shannon entropy is divided by ln(n!), so it lies in [0, 1].
No window is sorted: under that tie rule its pattern is fixed by the strict
comparisons of each value with the later ones, whose counts (the inversion
code) index a table of the n! patterns, built once per n. The counts come
from the n-1 lagged comparisons ``x[d:] < x[:-d]``, made once per series
and shared by every window, and ``_ordinal_counts`` is the one kernel
behind both permutation entropy and the permutation test.

``mse_sweeps`` is the single evaluation path, and ``mse_sweep`` its
one-series form. Threads go only where the sample-entropy kernel releases
the interpreter lock: a sweep starts a helper thread per extra CPU, shares
its (series, scale) cells out over them and the calling thread, each cell
whole in one thread, counts each cell's pairs in one tree, and joins the
helpers before it returns. A sweep made only of lock-holding metrics runs
in the calling thread.
"""
from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial, log
from typing import TYPE_CHECKING, Callable, Literal, Mapping, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DataError,
    Metric,
    MetricResult,
    NumericalError,
    Series,
    coarse_grain,
    sample_sd,
)

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "SampEnParams",
    "SampEnResult",
    "PermEnParams",
    "MseProfile",
    "sample_entropy",
    "permutation_entropy",
    "ordinal_pattern_counts",
    "mse_sweep",
    "mse_sweeps",
]

T = TypeVar("T")
R = TypeVar("R")


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
        if not math.isfinite(self.r_factor):
            raise ValueError(f"tolerance must be finite, got {self.r_factor}")
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


# The pairs at length m+1 are listed, not counted in bulk, when the
# length-m count finds at most this many matching pairs per template.
_LIST_BELOW = 128


def _template_tree(x: np.ndarray, k: int, nt: int) -> tuple[cKDTree, np.ndarray]:
    """A kd-tree over the distinct length-k templates among the first nt,
    and each one's multiplicity."""
    from scipy.spatial import cKDTree

    # one opaque k*8-byte key per template, so that np.unique sorts bytes
    # rather than k-field records; -0.0 and 0.0 stay apart, which changes
    # no count
    rows = np.ascontiguousarray(sliding_window_view(x, k)[:nt])
    keys, weights = np.unique(rows.view(np.dtype((np.void, rows.itemsize * k))),
                              return_counts=True)
    templates = keys.view(np.float64).reshape(-1, k)
    # sliding-midpoint splits keep the cells compact on clustered
    # templates, such as those of a noisy periodic orbit, where median
    # splits leave thin cells that prune poorly
    return cKDTree(templates, balanced_tree=False), weights


def _counted_pairs(tree: cKDTree, weights: np.ndarray, r: float) -> int:
    """Template pairs i < j within r, from one weighted bulk count.

    The tree counts the weighted ordered pairs, self-pairs included;
    removing the self-pairs and halving gives the unordered count.
    """
    total = tree.count_neighbors(tree, r, p=np.inf, weights=weights)
    return (int(total) - int(weights.sum())) // 2


def _listed_pairs(tree: cKDTree, weights: np.ndarray, r: float) -> int:
    """Template pairs i < j within r, from the list of distinct-template
    pairs: the pairs within each group of identical templates plus, for
    each listed pair, the product of the two multiplicities."""
    pairs = tree.query_pairs(r, p=np.inf, output_type="ndarray")
    w = weights.astype(np.int64)
    return int(w @ (w - 1)) // 2 + int(w[pairs[:, 0]] @ w[pairs[:, 1]])


def _pair_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """Count template pairs (i < j) matching at lengths m and m+1.

    Both lengths draw their templates from start indices 0 .. N-m-1, so
    every length-m template has a length-(m+1) extension and A <= B holds
    structurally.

    For each length, identical templates are collapsed into one point
    weighted by its multiplicity, and a kd-tree over the distinct points
    finds the pairs within Chebyshev distance r. Collapsing keeps the tree
    splittable on tie-heavy input (quantized or binary series), where a
    tree over the raw templates cannot separate identical points and
    degenerates to quadratic time.

    There are two ways to count. ``count_neighbors`` counts the weighted
    pairs in bulk: it adds up whole node pairs that lie within r, but it
    visits every node pair in both orders. ``query_pairs`` lists each
    distinct-template pair once, so it does about half the work where
    matches are sparse, and falls far behind where they are dense (2x
    slower on the noisy period-4 orbit at 8k points). B is always counted
    in bulk, and it tells which way suits A, since A <= B: when B/nt, the
    matching pairs per template at length m, is at most ``_LIST_BELOW``
    (128), A's pairs are listed. Listing wins by 2-3x on sparse matches.
    On N(0,1) it stays ahead beyond 700 pairs per template (8k points);
    on the noisy period-4 orbit up to about 300 at 4k-8k points, but only
    to about 100 at 1k, where whole clusters match and the bulk count adds
    them up at once. The inputs measured mostly lie far from the switch:
    B/nt is 15-73 for 8k-point RR-like series at scales 1-3 and 6-42 for
    the reproduction battery's 1000-point series (124 for the period-4
    logistic orbit, whose templates take 4 distinct values), while every
    cell of an ``mse --fixed-r`` sweep of the 8k-point noisy period-4
    orbit has 400-1600.

    The counts are exact. Both calls decide a point pair by comparing the
    same rounded coordinate differences with r that the definition does,
    so distances exactly equal to r still match, and they count or prune
    a whole node pair only on bounding-box distances, which bound every
    point distance inside also after rounding. The bulk count sums the
    weights as floats; every partial sum is an integer below nt**2 < 2**53,
    so the total is exact. The listed count multiplies and sums integer
    weights in int64, where every sum stays below nt**2. Memory is O(N)
    for fixed m: the list holds at most A <= B <= 128*nt pairs of 16 bytes.
    """
    nt = x.size - m
    b = _counted_pairs(*_template_tree(x, m, nt), r)
    count = _listed_pairs if b <= _LIST_BELOW * nt else _counted_pairs
    a = count(*_template_tree(x, m + 1, nt), r)
    return a, b


def sample_entropy(series: Series, params: SampEnParams = SampEnParams()) -> SampEnResult:
    """Sample entropy: -ln(A/B) over matching template pairs.

    Raises NumericalError when the tolerance degenerates to zero (constant
    series under per-input-SD mode) or is not finite (an SD that overflows),
    when the values differ by more than the largest float, which the tree
    cannot hold, or when either count is zero.
    """
    n = len(series)
    if n < params.m + 2:
        raise DataError(f"series of length {n} too short for m={params.m}")
    r = params.tolerance(series)
    if r <= 0:
        raise NumericalError("degenerate tolerance (r = 0)")
    if not math.isfinite(r):
        raise NumericalError(f"non-finite tolerance (r = {r})")
    if math.isinf(float(series.values.max()) - float(series.values.min())):
        raise NumericalError("values differ by more than the largest float")
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


@lru_cache(maxsize=None)
def _lehmer_table(n: int) -> np.ndarray:
    """Entry k is the Lehmer code of the argsort of the window whose inversion
    code is k. That window ranks its samples as the k-th permutation of range(n)
    in lexicographic order; its argsort is the inverse permutation, whose
    Lehmer code is the inverse's own lexicographic rank."""
    perms = np.array(list(permutations(range(n))))
    table = np.unique(np.argsort(perms, axis=1), axis=0, return_inverse=True)[1].ravel()
    table.flags.writeable = False  # every caller shares it
    return table


def _ordinal_counts(x: np.ndarray, n: int, step: int = 1) -> np.ndarray:
    """Pattern counts of the windows ``x[s:s+n]`` for s = 0, step, 2*step, ...
    while s+n <= N: a dense array of n! int64 counters, indexed by the Lehmer
    code of the window's stable ascending argsort (ties rank by position).

    Digit a of a window's inversion code counts the later b with
    ``x[s+b] < x[s+a]``, so it is ``C[n-1-a][s+a]`` with
    ``C[k][i] = sum(x[i+d] < x[i] for d in 1..k)``. The n-1 lagged
    comparisons are made once for the whole series and summed as running
    int8 counts (at most 7). Each digit is a shifted, strided slice of one
    of them, and the mixed-radix code (below 8! = 40320) is assembled in
    int32. The codes are counted, and the n! counts are moved to their
    patterns through ``_lehmer_table`` rather than looking up every code.
    Step 1 gives the overlapping windows of permutation entropy; step n the
    disjoint groups of the permutation test.
    """
    span = (x.size - n) // step * step + 1  # from the first window's start to the last's
    running = [(x[1:] < x[:-1]).view(np.int8)]  # running[k - 1] is C[k]
    for d in range(2, n):
        running.append(running[-1][:-1] + (x[d:] < x[:-d]))
    codes = running[n - 2][:span:step].astype(np.int32)
    for a in range(1, n - 1):
        codes *= n - a
        codes += running[n - 2 - a][a:a + span:step]
    counts = np.zeros(factorial(n), dtype=np.int64)
    counts[_lehmer_table(n)] = np.bincount(codes, minlength=counts.size)
    return counts


def ordinal_pattern_counts(series: Series, n: int) -> np.ndarray:
    """Histogram of ordinal patterns over the N-n+1 overlapping windows.

    Dense array of n! counters, indexed by the Lehmer code of each window's
    stable argsort; sums to N-n+1 exactly. The windows are not
    built: ``_ordinal_counts`` reads the patterns off n-1 lagged
    comparisons of the whole series.
    """
    if len(series) < n:
        raise DataError(f"series shorter than tuple (N={len(series)}, n={n})")
    return _ordinal_counts(series.values, n)


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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_in_order(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """``[fn(item) for item in items]``, shared out over ``workers`` threads.

    The calling thread and ``min(workers, len(items)) - 1`` helper threads,
    started here and joined before it returns, each take the next item
    until none is left, so with one worker or one item everything runs in
    the calling thread. An exception, or an interrupt while the caller
    waits, stops any further item from starting and propagates once every
    started item has ended.
    """
    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(len(items)):
        todo.put(i)
    results: list = [None] * len(items)
    errors: list[BaseException] = []

    def take() -> None:
        while not errors:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                errors.append(exc)

    helpers: list[threading.Thread] = []
    try:
        for _ in range(min(workers, len(items)) - 1):
            helper = threading.Thread(target=take, name="tscomplex-sweep")
            helper.start()
            helpers.append(helper)
        take()
        for helper in helpers:
            helper.join()
    except BaseException as exc:  # an interrupt, or a helper that could not start
        errors.append(exc)
        for helper in helpers:
            helper.join()
        raise
    if errors:
        raise errors[0]
    return results


def mse_sweeps(
    series_list: Sequence[Series],
    scales: Sequence[int],
    metrics: Sequence[Metric],
    *,
    partial: Literal["drop", "mean"] = "drop",
) -> list[MseProfile]:
    """Coarse-grain every series at each scale and evaluate every metric.

    This is the package's single evaluation path: every score the CLI and
    the reproduction harness report comes from here. Metrics that derive
    tolerances from their input (sample entropy in per-input-SD mode)
    recompute them from each down-sampled series. A metric failure in one
    (series, scale) cell is recorded in that cell as a NaN result with the
    error message attached; the sweep continues. Any other exception
    propagates, and no cell starts after it.

    The scales and every series' length are checked before any cell runs.
    The (series, scale) cells are independent, so they are shared out in
    series-major order between the calling thread and helper threads that
    the sweep starts and joins, one per further CPU in the process's
    affinity set (``taskset`` limits it) and no more than there are cells;
    a one-cell sweep runs in the calling thread. Each cell coarse-grains
    its series and evaluates every metric. The sample-entropy kernel
    releases the interpreter lock; the other metrics hold it for most of
    their short cells, so a sweep whose metrics all declare ``holds_lock``
    runs in the calling thread, where a second thread would add only lock
    hand-offs. Results come back in input order, and the output does not
    depend on the worker count. A metric may itself call a sweep, which
    starts helpers of its own.
    """
    if len(scales) == 0:
        raise DataError("empty scale list")
    ordered = [int(s) for s in scales]
    if ordered != sorted(set(ordered)):
        raise DataError("scales must be strictly increasing")
    for series in series_list:
        for s in (ordered[0], ordered[-1]):
            if s < 1 or s > len(series):
                raise DataError(f"invalid scale {s} for series of length {len(series)}")
    workers = 1 if all(metric.holds_lock for metric in metrics) else _cpus()

    def score(cell: tuple[Series, int]) -> list[tuple[tuple[int, str], MetricResult]]:
        """One cell's results; a failed metric is a NaN cell carrying the
        error message."""
        series, scale = cell
        grained = coarse_grain(series, scale, partial=partial)
        results = []
        for metric in metrics:
            try:
                result = metric(grained)
            except (DataError, NumericalError) as exc:
                result = MetricResult.failed(metric.name, exc)
            results.append(((scale, metric.name), result))
        return results

    cells = [(series, scale) for series in series_list for scale in ordered]
    scored = _map_in_order(score, cells, workers)
    names = tuple(metric.name for metric in metrics)
    per_series = len(ordered)
    return [MseProfile(scales=tuple(ordered), metrics=names,
                       results=dict(pair for cell in scored[i:i + per_series] for pair in cell))
            for i in range(0, len(scored), per_series)]


def mse_sweep(
    series: Series,
    scales: Sequence[int],
    metrics: Sequence[Metric],
    *,
    partial: Literal["drop", "mean"] = "drop",
) -> MseProfile:
    """``mse_sweeps`` of one series: coarse-grain it at each scale and
    evaluate every metric."""
    return mse_sweeps([series], scales, metrics, partial=partial)[0]
