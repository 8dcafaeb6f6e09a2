"""Sample entropy, normalized permutation entropy, and the multi-scale sweeps.

Sample entropy counts template pairs under the Chebyshev (max-coordinate)
distance with non-strict matching (distance <= r) and no self-matches. The
counts are exact and sub-quadratic, by one of three strategies
(``_strategy``): on cells with few distinct values, such as quantized
RR intervals, a summed-area table over the value ranks counts each
distinct template's matches as one box; on cells where a bound on the
length-m matches is low, one kd-tree over the raw length-m templates
lists B's pairs and A counts those whose extra coordinate matches too;
elsewhere the distinct templates of each length, each weighted by its
multiplicity, are split into blocks of at most ``_BLOCK`` with a kd-tree
each, and every pair of blocks is ruled out or counted whole on the
blocks' bounding boxes, or else counted in bulk by their trees. Series of
~100k points (24-hour RR-interval recordings) take milliseconds when
quantized and seconds when not. The tree is scipy's ``cKDTree``, imported
where the first tree is built, so that importing this module loads no
scipy. The default tolerance is a multiple of the series' sample SD
(``core.sample_sd``).
Permutation entropy histograms the ordinal patterns of the overlapping
windows of n samples, n a plain int, with ties broken toward the earlier
index (stable sort), and is always normalized: the Shannon entropy is
divided by ln(n!), so it lies in [0, 1].
No window is sorted: under that tie rule its pattern is fixed by the strict
comparisons of each value with the later ones, whose counts (the inversion
code) index a table of the n! patterns, built once per n. The counts come
from the n-1 lagged comparisons ``x[d:] < x[:-d]``, made once per series
and shared by every window, and ``_ordinal_counts`` is the one kernel
behind both permutation entropy and the permutation test; its limits on
the pattern length are ``check_pattern_length``, the one check of n and t.

``mse_sweeps`` is the single evaluation path, and ``mse_sweep`` its
one-series form. A sweep of several cells starts a helper thread per extra
CPU, shares its (series, scale) cells out over them and the calling
thread, each cell whole in one thread, and joins the helpers before it
returns, whatever its metrics. ``check_scales`` and ``check_metric_names``
are the one check of a scale list and of the metric names, which the
sweep and ``metrics.AnalysisConfig`` share.
"""
from __future__ import annotations

import math
import os
import queue
import threading
from collections.abc import Iterable
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
    check_int,
    check_partial,
    check_real,
    coarse_grain,
    sample_sd,
)

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "SampEnParams",
    "SampEnResult",
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
    ``m`` must be a whole number, kept as an int, and ``r_factor`` a finite
    real number, kept as a float.
    """

    m: int = 2
    r_factor: float = 0.2
    r_mode: Literal["per_input_sd", "absolute"] = "per_input_sd"

    def __post_init__(self):
        object.__setattr__(self, "m", check_int(self.m, "embedding length"))
        if self.m < 1:
            raise ValueError(f"embedding length must be >= 1, got {self.m}")
        object.__setattr__(self, "r_factor", check_real(self.r_factor, "tolerance"))
        if self.r_factor <= 0:
            raise ValueError(f"tolerance must be positive, got {self.r_factor}")
        if self.r_mode not in ("per_input_sd", "absolute"):
            raise ValueError(f"unknown tolerance mode {self.r_mode!r}; "
                             "choose per_input_sd or absolute")

    def tolerance(self, series: Series) -> float:
        if self.r_mode == "absolute":
            return self.r_factor
        return self.r_factor * sample_sd(series)


@dataclass(frozen=True)
class SampEnResult:
    """-ln(a_count / b_count) plus the raw pair counts behind it."""

    value: float
    a_count: int
    b_count: int
    r: float


# Pairs are listed, not counted in bulk, only where a bound on B allows at
# most this many per template.
_LIST_BELOW = 256


# Distinct templates are counted in blocks of at most this many, each on
# its own tree.
_BLOCK = 512


def _kd_tree(points: np.ndarray) -> cKDTree:
    """scipy's kd-tree over the rows of ``points``, imported here so that
    importing this module loads no scipy."""
    from scipy.spatial import cKDTree

    # sliding-midpoint splits prune better than median splits on clustered
    # templates, such as those of a noisy periodic orbit; but the traversal
    # cuts its node rectangles from the root box, so they still span the
    # empty space between clusters, which the blocks of ``_blocks`` remove
    return cKDTree(points, balanced_tree=False)


def _templates(x: np.ndarray, k: int, nt: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct length-k templates among the first nt, as rows, and
    each one's multiplicity."""
    # one opaque k*8-byte key per template, so that np.unique sorts bytes
    # rather than k-field records; -0.0 and 0.0 stay apart, which changes
    # no count
    rows = np.ascontiguousarray(sliding_window_view(x, k)[:nt])
    keys, weights = np.unique(rows.view(np.dtype((np.void, rows.itemsize * k))),
                              return_counts=True)
    return keys.view(np.float64).reshape(-1, k), weights


def _blocks(points: np.ndarray, weights: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The weighted points split into blocks of at most ``_BLOCK``: each
    part is halved at the median of the coordinate along which its own
    points spread widest, until it is small enough."""
    parts, blocks = [(points, weights)], []
    while parts:
        p, w = parts.pop()
        if len(p) <= _BLOCK:
            blocks.append((p, w))
            continue
        axis = int(np.argmax(p.max(axis=0) - p.min(axis=0)))
        half = len(p) // 2
        low, high = np.split(np.argpartition(p[:, axis], half), [half])
        parts += [(p[low], w[low]), (p[high], w[high])]
    return blocks


def _counted_pairs(points: np.ndarray, weights: np.ndarray, r: float) -> int:
    """Template pairs i < j within r, from weighted bulk counts over the
    blocks of the distinct templates.

    The weighted ordered pairs, self-pairs included, are the sum over block
    pairs (``_pair_counts`` gives the rules); removing the self-pairs and
    halving gives the unordered count.
    """
    blocks = _blocks(points, weights)
    lo = np.array([p.min(axis=0) for p, _ in blocks])
    hi = np.array([p.max(axis=0) for p, _ in blocks])
    sums = [int(w.sum()) for _, w in blocks]
    trees = [_kd_tree(p) for p, _ in blocks]
    total = 0
    for i, (_, w) in enumerate(blocks):
        # the boxes of blocks i, i+1, ... against block i's
        apart = ((lo[i:] - hi[i] > r) | (lo[i] - hi[i:] > r)).any(axis=1)
        within = ((hi[i:] - lo[i] <= r) & (hi[i] - lo[i:] <= r)).all(axis=1)
        for j in i + np.flatnonzero(~apart):
            if within[j - i]:
                count = sums[i] * sums[j]
            else:
                count = int(trees[i].count_neighbors(trees[j], r, p=np.inf,
                                                     weights=(w, blocks[j][1])))
            total += count if j == i else 2 * count
    return (total - int(weights.sum())) // 2


def _tree_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """(A, B) from bulk counts on blocks of the distinct templates, each
    block on its own tree, per length."""
    nt = x.size - m
    return (_counted_pairs(*_templates(x, m + 1, nt), r),
            _counted_pairs(*_templates(x, m, nt), r))


def _extended_pairs(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """(A, B) from one list of the length-m pairs of a tree over the raw
    templates: B is its length, A the pairs whose extra coordinates
    ``x[i+m]``, ``x[j+m]`` also lie within r."""
    tree = _kd_tree(sliding_window_view(x, m)[:x.size - m])
    pairs = tree.query_pairs(r, p=np.inf, output_type="ndarray")
    extra = x[m:]
    gap = extra[pairs[:, 0]]
    gap -= extra[pairs[:, 1]]
    return int(np.count_nonzero(np.abs(gap, out=gap) <= r)), len(pairs)


def _match_ranks(v: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """For each of the sorted distinct values ``v[i]``, the ranks [lo, hi)
    of the values ``v[j]`` with ``abs(v[j] - v[i]) <= r``.

    Rounding is monotone, so the rounded difference ``v[j] - v[i]`` is too,
    and the ranks that match form one interval. hi is a binary search on
    that same comparison; a difference that overflows is inf, which
    correctly does not match. ``v[i] - v[j]`` rounds to ``-(v[j] - v[i])``,
    so j < i matches i exactly when i < hi[j], and lo follows from hi.
    """
    ranks = np.arange(v.size)
    beyond = np.append(v, np.inf)  # rank v.size never matches
    lo, hi = ranks + 1, np.full_like(ranks, v.size)
    with np.errstate(over="ignore"):
        while (lo < hi).any():
            mid = (lo + hi) // 2
            out = beyond[mid] - v > r
            lo, hi = np.where(out, lo, mid + 1), np.where(out, mid, hi)
    return np.searchsorted(hi, ranks, "right"), hi


def _grid_pairs(ranks: np.ndarray, lo: np.ndarray, hi: np.ndarray, k: int, nt: int) -> int:
    """Template pairs i < j within r at length k, from a summed-area table
    over the rank grid.

    The first nt length-k templates of ``ranks`` are counted into an int32
    table of side K+1 per axis at rank+1, so that index 0 of every axis is
    empty, and the table is prefix-summed in place along each axis. Template
    u matches the templates whose rank on each axis d lies in
    [lo[u_d], hi[u_d]): a box, whose count is the inclusion-exclusion sum
    over its 2^k corners. Each occupied cell's box count, times the cell's
    weight, is summed in int64; the corners are visited in Gray-code order,
    so that each step moves one axis between its two bounds.
    """
    side = lo.size + 1
    strides = [side ** (k - 1 - d) for d in range(k)]
    cells = sum((ranks[d:d + nt] + 1) * strides[d] for d in range(k))
    table = np.zeros(side ** k, np.int32)
    np.add.at(table, cells, np.int32(1))
    occupied = np.flatnonzero(table)
    weights = table[occupied].astype(np.int64)
    grid = table.reshape((side,) * k)
    for axis in range(k):
        np.cumsum(grid, axis=axis, out=grid)
    coords = [c - 1 for c in np.unravel_index(occupied, grid.shape)]
    at = sum(lo[c] * s for c, s in zip(coords, strides))  # every axis at its lower bound
    steps = [(hi[c] - lo[c]) * s for c, s in zip(coords, strides)]
    sign = (-1) ** k
    ordered = sign * int(weights @ table[at])
    for i in range(1, 2 ** k):
        d = (i & -i).bit_length() - 1  # the axis that moves
        rising = (i ^ i >> 1) >> d & 1
        (np.add if rising else np.subtract)(at, steps[d], out=at)
        sign = -sign
        ordered += sign * int(weights @ table[at])
    return (ordered - nt) // 2


def _grid_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """(A, B) from summed-area tables over the ranks of the distinct
    values, one per length."""
    nt = x.size - m
    v, ranks = np.unique(x, return_inverse=True)
    lo, hi = _match_ranks(v, r)
    return _grid_pairs(ranks, lo, hi, m + 1, nt), _grid_pairs(ranks, lo, hi, m, nt)


_STRATEGIES = {"extended": _extended_pairs, "trees": _tree_counts, "grid": _grid_counts}

# A cell is counted on the rank grid when its length-(m+1) table would hold
# at most this many cells per template.
_GRID_CELLS = 256


def _grid_bound(x: np.ndarray, nt: int, r: float) -> int:
    """A bound on B for m >= 2: the pairs among the first nt templates whose
    coordinates 0 and 1 lie in the same or neighbouring cells of a grid of
    side h = r*(1 + 2^-16); once a cell index could pass 2^30, every pair.
    This is box-assisted counting (Theiler 1987; Manis, Aktaruzzaman and
    Sassi 2018 for sample entropy) used only as a bound, which on N(0,1),
    AR(1) and noisy periodic series lies within about 2.3 times B.

    A value v's cell is the floor of ``(v - lo) / r / (1 + 2^-16)``, lo the
    least of ``x[:nt+1]``. A pair matches only if each rounded coordinate
    difference is at most r, so each true difference is at most
    r*(1 + 2^-52). The three roundings of a quotient below 2^30 are off by
    less than 2^30 * 4*2^-53 = 2^-21, so the quotients of the two values
    differ by less than (1 + 2^-52)/(1 + 2^-16) + 2*2^-21 < 1 and their
    floors by at most one: no matching pair lands two cells apart. Dividing
    by r first keeps the margin when r is subnormal. Cell indices below
    2^30 pack into int64 keys, and the 3x3 cells around each occupied cell
    form three runs of keys in sort order.
    """
    with np.errstate(over="ignore"):
        q = np.floor((x[:nt + 1] - x[:nt + 1].min()) / r / (1 + 2 ** -16))
    if not q.max() < 2 ** 30:  # also an overflowing difference or quotient, inf
        return nt * (nt - 1) // 2
    cells = q.astype(np.int64)
    side = int(cells.max()) + 2  # index side - 1 is never occupied
    keys = np.sort(cells[:nt] * side + cells[1:])
    occupied, weights = np.unique(keys, return_counts=True)
    near = sum(np.searchsorted(keys, occupied + row + 2) - np.searchsorted(keys, occupied + row - 1)
               for row in (-side, 0, side))
    return (int(weights @ near) - nt) // 2


def _strategy(x: np.ndarray, m: int, r: float) -> str:
    """The name of the ``_STRATEGIES`` entry that counts this cell.

    Both rules read one sort of the whole series, which gives its K
    distinct values. ``grid`` when (K + 1)^(m+1) <= ``_GRID_CELLS``*nt,
    which bounds the length-(m+1) table and, through 2^(m+1) <=
    (K + 1)^(m+1), its corner sums; the power is taken in Python integers,
    and only once 2^(m+1) is under the bound, since m has no upper limit.
    Otherwise ``extended`` when a bound on B is at most ``_LIST_BELOW``*nt,
    which caps the listed pairs, else ``trees``. The bound is the count of
    sample pairs within r among all N samples (short of differences that
    round down to r): a superset of the first-coordinate pairs of B, larger
    by at most m*N. For m >= 2, once that count passes the limit,
    ``_grid_bound`` replaces it.
    ``benchmarks/test_sampen.py`` medians (m=2, r=0.2 SD, 2 cores):
    ``extended`` takes 8 ms for 4096 N(0,1) points, where the trees took
    22 ms, and 93-99 against 148-153 ms at 16k; ties do not slow it, as
    on the 1/128 grid (7 against 21 ms at 4k). On one CPU the noisy
    period-4 orbit lists faster than the blocked trees count up to its
    bound, 18 against 20 ms at 2048 points (253 per template in B). A
    tie-free AR(1) path with coefficient 0.95 bounds 653 per template at
    16k and stays on the trees. The blocks made the trees 1.3-3.7 times
    faster where they count (one CPU): the noisy orbit at 4k-64k 29, 145
    and 983 ms (one tree per length: 68, 533 and 2709 ms), the AR(1)
    path at 16k and 64k 0.32 and 2.3 s (0.45 and 4.1 s), and N(0,1) at
    64k 1.45 s (1.83 s). RR-like series quantized to 1/128 s hold 47-126
    distinct values at scales 1-10 of an 8192-point file; the grid takes
    scales 1-3, where it is 1.6-10 times faster, and ``extended`` the
    rest. The noisy period-4 orbit of an ``mse --fixed-r`` sweep bounds
    408-1024 per template and stays on the trees.
    """
    nt = x.size - m
    s = np.sort(x)
    values = x.size - int(np.count_nonzero(s[1:] == s[:-1]))
    cells = _GRID_CELLS * nt
    if m + 1 < cells.bit_length() and (values + 1) ** (m + 1) <= cells:
        return "grid"
    with np.errstate(over="ignore"):
        bound = int(np.searchsorted(s, s + r, "right").sum()) - x.size * (x.size + 1) // 2
    limit = _LIST_BELOW * nt
    if m > 1 and bound > limit:
        bound = _grid_bound(x, nt, r)
    return "extended" if bound <= limit else "trees"


def _pair_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """Count template pairs (i < j) matching at lengths m and m+1.

    Both lengths draw their templates from start indices 0 .. N-m-1, so
    every length-m template has a length-(m+1) extension and A <= B holds
    structurally. ``_strategy`` names the way to count: ``grid`` for cells
    with few distinct values, ``extended`` for cells whose bound on B is
    low, else ``trees``, which collapses identical templates into weighted
    points and so stays splittable on tie-heavy input (quantized or binary
    series), where a raw-template tree degenerates to quadratic time.

    ``grid`` is box-assisted counting (Theiler 1987) on the ranks of the K
    distinct values rather than on cells of side r, so no cell edge is
    rounded. For each value the values within r form one interval of
    ranks, since the rounded difference is monotone, and two templates
    match exactly when each one's rank on every axis lies in the other's
    interval: a box of the K^k rank grid, counted on a summed-area table.

    ``count_neighbors`` counts pairs in bulk: it adds up whole node pairs
    that lie within r, but visits every node pair in both orders.
    ``query_pairs`` lists each pair once, so it does about half the work
    where matches are sparse; ``extended`` lists B's pairs only up to
    ``_LIST_BELOW`` per template, and A needs no tree of its own.

    ``trees`` is a dual-tree count (Gray and Moore 2001) whose top levels
    are blocks. scipy decides its node pairs on rectangles cut from the
    root box by the split planes, which on clustered templates span the
    empty space between clusters. So each length's distinct templates are
    halved at the median of the coordinate their own points spread widest
    along until no block holds more than ``_BLOCK`` (``_blocks``), and each
    block's tree starts from its block's tight box. A pair of blocks i, j
    with boxes [lo, hi] and weight sums W is decided on the boxes: no pair
    matches when on some coordinate lo_j - hi_i > r or lo_i - hi_j > r;
    all W_i*W_j weighted pairs match when on every coordinate
    hi_j - lo_i <= r and hi_i - lo_j <= r; otherwise the blocks' trees
    count it. The ordered count is the sum over i of the pair (i, i) plus
    twice the sum over i < j. A cell of at most ``_BLOCK`` distinct
    templates is one block on one tree.

    The counts are exact. The trees, the blocks, the extra coordinate and
    the grid's rank intervals decide a point pair by comparing the same
    rounded coordinate differences with r that the definition does, so
    distances exactly equal to r still match, and a difference that
    overflows is inf and does not. A tree counts or prunes a whole node
    pair, and ``trees`` a whole block pair, only on bounding-box
    differences: rounded subtraction is monotone, so a box difference
    bounds the difference of every pair of points inside, also after
    rounding. A box difference lies within one coordinate's range, which
    ``sample_entropy`` keeps below the largest float, as the tree needs.
    Each bulk count sums the weights as floats; every partial sum is an
    integer below nt**2 < 2**53, so it is exact, and the block counts add
    up in Python ints. Listed and grid counts are int64, and a grid table
    holds counts up to nt in int32. Memory is O(N) for fixed m: the blocks
    and their trees hold each distinct template once, and their boxes are
    compared one block's row at a time (never a blocks x blocks x k array,
    about 100 MB at 1M points); a list holds at most 256*nt pairs of 16
    bytes (short of first-coordinate differences that round down to r when
    the cheaper bound decides), and a grid table about 256*nt cells of 4
    bytes. The counts never depend on the bounds, which only choose the
    strategy.
    """
    return _STRATEGIES[_strategy(x, m, r)](x, m, r)


def sample_entropy(series: Series, params: SampEnParams = SampEnParams()) -> SampEnResult:
    """Sample entropy: -ln(A/B) over matching template pairs.

    Raises NumericalError when the tolerance degenerates to zero (constant
    series under per-input-SD mode) or is not finite (an SD that overflows),
    when the values of one template coordinate ``x[k:k+N-m]``, k = 0..m,
    differ by more than the largest float, which the tree cannot hold, or
    when either count is zero.
    """
    n = len(series)
    if n < params.m + 2:
        raise DataError(f"series of length {n} too short for m={params.m}")
    r = params.tolerance(series)
    if r <= 0:
        raise NumericalError("degenerate tolerance (r = 0)")
    if not math.isfinite(r):
        raise NumericalError(f"non-finite tolerance (r = {r})")
    x, nt = series.values, n - params.m
    if any(math.isinf(float(c.max()) - float(c.min()))
           for c in (x[k:k + nt] for k in range(params.m + 1))):
        raise NumericalError("values differ by more than the largest float")
    a, b = _pair_counts(x, params.m, r)
    if a == 0 or b == 0:
        err = NumericalError(f"insufficient matches (A={a}, B={b})")
        err.a_count = a
        err.b_count = b
        raise err
    # + 0.0 normalizes the -0.0 that -log(1.0) produces when A == B
    return SampEnResult(value=-log(a / b) + 0.0, a_count=a, b_count=b, r=r)


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


def check_pattern_length(n: int, name: str) -> int:
    """An ordinal pattern length (permutation entropy's tuple size, the
    permutation test's group size) as an int; ValueError, naming it as
    ``name``, unless it is a whole number in [2, 8]. ``_ordinal_counts``
    sets the limit: it keeps a counter for each of the n! patterns, and
    ``_lehmer_table`` lists them all, 40320 at n = 8."""
    n = check_int(n, name)
    if not 2 <= n <= 8:
        raise ValueError(f"{name} must be in [2, 8], got {n}")
    return n


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
    comparisons of the whole series. n must be a whole number in [2, 8]
    (``check_pattern_length``), else a ValueError.
    """
    n = check_pattern_length(n, "tuple size")
    if len(series) < n:
        raise DataError(f"series shorter than tuple (N={len(series)}, n={n})")
    return _ordinal_counts(series.values, n)


def permutation_entropy(series: Series, n: int = 5) -> float:
    """Shannon entropy (natural log) of the ordinal-pattern distribution of
    the overlapping windows of n samples, divided by its maximum ln(n!).
    The tuple size n is checked by ``ordinal_pattern_counts`` (a whole
    number in [2, 8], else a ValueError), as the permutation test's group
    size is."""
    counts = ordinal_pattern_counts(series, n)
    p = counts[counts > 0] / counts.sum()
    # + 0.0 normalizes the -0.0 that a single pattern (p = 1) produces
    h = float(-(p * np.log(p)).sum()) + 0.0
    return h / log(counts.size)  # counts holds the n! patterns


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


def _map_in_order(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[fn(item) for item in items]``, shared out over a thread per CPU.

    The calling thread and ``min(_cpus(), len(items)) - 1`` helper threads,
    started here and joined before it returns, each take the next item
    until none is left, so on one CPU or with one item everything runs in
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
        for _ in range(min(_cpus(), len(items)) - 1):
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


def _as_tuple(values: Sequence[T], name: str) -> tuple[T, ...]:
    """``values`` as a tuple; ValueError naming it unless it is a sequence
    other than a string, whose characters would read as its items."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValueError(f"{name} must be a sequence, got {values!r}")
    return tuple(values)


def check_scales(scales: Sequence[int]) -> tuple[int, ...]:
    """The scale list of a sweep as a tuple of ints; ValueError unless it is
    a non-empty sequence of whole numbers, each >= 1, strictly
    increasing."""
    scales = tuple(check_int(s, "scale") for s in _as_tuple(scales, "scales"))
    if not scales:
        raise ValueError("empty scale list")
    if scales[0] < 1:
        raise ValueError(f"scales must be >= 1, got {scales[0]}")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly increasing")
    return scales


def check_metric_names(names: Sequence[str]) -> tuple[str, ...]:
    """The metric names as a tuple; ValueError unless they are a sequence
    other than a string, or naming the first name that occurs a second
    time."""
    names = _as_tuple(names, "metrics")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ValueError(f"metric named more than once: {repeated[0]}")
    return names


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

    The arguments are checked before any cell runs, by the checks the
    config shares: a scale list that ``check_scales`` refuses, a
    ``partial`` other than "drop" or "mean" and a metric name given twice
    (``check_metric_names``) are ValueErrors. A scale past the length of a
    series is a fault of the data, a DataError. The (series, scale) cells
    are independent, so they are shared out in series-major order between
    the calling thread and helper threads that the sweep starts and joins,
    one per further CPU in the process's affinity set (``taskset`` limits
    it) and no more than there are cells; a one-cell sweep, or one on one
    CPU, runs in the calling thread. Each cell coarse-grains its series and
    evaluates every metric.
    The sample-entropy kernel releases the interpreter lock; the ordinal
    and runs metrics hold it for most of a short cell, so a sweep of many
    short series with only those metrics spends its second thread on lock
    hand-offs. Results come back in input order, and the output does not
    depend on the thread count. A metric may itself call a sweep, which
    starts helpers of its own.
    """
    ordered = check_scales(scales)
    check_partial(partial)
    names = tuple(metric.name for metric in metrics)
    check_metric_names(names)
    for series in series_list:
        if ordered[-1] > len(series):
            raise DataError(f"invalid scale {ordered[-1]} for series of length {len(series)}")

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
    scored = _map_in_order(score, cells)
    per_series = len(ordered)
    return [MseProfile(scales=ordered, metrics=names,
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
