"""Exactness gate for the sample-entropy pair counts at the sizes users run.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_exactness.py -q

The tier-1 oracle tests check ``entropy._pair_counts`` at a few hundred
points. Here it is compared, at 1k-16k points, with a blocked numpy brute
force over every template pair (m=2): on tie-heavy series whose pair
distances often equal r exactly, where an off-by-one-ulp tolerance or an
unsound box bound would change a count; on the dense noisy period-4
orbit; and on the tie-free 1000-point series of the reproduction tables
(N(0,1), uniform and exponential at r = 0.2 SD, N(0,1) coarse-grained at
scales 2-5, and a permutation of the 1/128 grid whose distances often
equal r); and on a quantized RR-like series coarse-grained at scale 3,
whose block means are off the 1/128 grid. ``normal-8k-b127`` and
``normal-8k-b131`` are N(0,1) series with 127 and 131 length-m matches per
template, counted on the ``trees``. ``rule-below-4k`` and ``rule-above-4k``
put ``entropy._grid_bound``, which ``entropy._strategy`` reads once the
first coordinate alone matches too many pairs, just under and just over
``entropy._LIST_BELOW`` pairs per template (255.5 and 256.7), so the choice
between ``extended`` and ``trees`` is checked on both sides. The 1/128 grid
at 16k has ties and few matches, and takes ``extended``; ``ar95-8k``, a
tie-free AR(1) path with coefficient 0.95, matches 155 pairs per template
but bounds them at 322, and takes the ``trees``. ``rule-grid-below-8k`` and
``rule-grid-above-8k`` hold 126 and 127 distinct integers, the last of them
only in the final sample, so (K + 1)^(m+1) lies just under and just over
``entropy._GRID_CELLS`` cells per template (2 048 383 and 2 097 152 against
2 096 640), and the choice of ``grid`` is checked on both sides; every case
takes ``grid`` exactly when it meets that rule, and every case's grid bound
is at least its B. ``straddle-8k`` alternates 0 and 1 plus N(0, 0.25^2)
noise with r = 1, so half the pairs of values lie about r apart, and
``periodic-16k-scale2`` is the noisy period-4 orbit coarse-grained at scale
2 with the orbit's own r, as ``mse --fixed-r`` keeps it: clusters closer
than r with empty space between them. Both take the ``trees``, whose
blocks (``entropy._BLOCK``) are pruned or counted whole on their bounding
boxes. Each strategy in ``entropy._STRATEGIES`` is also compared on every
case it is fit for: ``trees`` on all of them, ``extended`` on those whose
list stays within twice the bound, and ``grid`` on those whose rank table
stays within twice its bound.
At 64k, where the brute force is too slow (N(0,1), the 1/128 grid, the
periodic orbit, the RR-like series and the AR(1) path), the counts are
compared with one weighted ``count_neighbors`` of a median-split tree over
all the distinct templates, built from ``np.unique(axis=0)`` rather than
the kernel's byte keys, blocks and sliding-midpoint trees. The kernel
reads no CPU count, so each comparison runs once. The brute force takes
a few seconds per series.
"""
from functools import lru_cache

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from tscomplex import Series, add_noise, arma_simulate, coarse_grain, logistic_map
from tscomplex import entropy

BLOCK = 128  # brute-force rows per step: a few MB of temporaries


def _rng(n: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(n))


def _rr_like(n: int) -> np.ndarray:
    """An ARMA(2,2) path scaled to 0.8 s +/- 50 ms on the 1/128 s grid."""
    z = arma_simulate((0.9, -0.2), (-0.7, 0.1), n, n).values
    return np.round((0.8 + 0.05 * (z - z.mean()) / z.std(ddof=1)) * 128) / 128


def _periodic(n: int) -> tuple[np.ndarray, float]:
    """Logistic r=3.5 on its period-4 orbit plus noise of 0.05 SD, with
    r = 0.2 SD: dense matches."""
    x = add_noise(logistic_map(3.5, 0.3, keep=n, total=n + 1000), n, sd_multiplier=0.05).values
    return x, 0.2 * float(np.std(x, ddof=1))


def _periodic_grained(n: int, scale: int) -> tuple[np.ndarray, float]:
    """``_periodic(n)`` coarse-grained at ``scale``, with the tolerance of
    the series itself, as ``mse --fixed-r`` keeps it."""
    x, r = _periodic(n)
    return coarse_grain(Series(x), scale).values, r


def _sd_tolerance(x: np.ndarray) -> tuple[np.ndarray, float]:
    return x, 0.2 * float(np.std(x, ddof=1))


def _integers(k: int) -> np.ndarray:
    """8192 draws of the integers 0 .. k-1."""
    return _rng(8195).integers(0, k, size=8192).astype(float)


def _grained(scale: int) -> tuple[np.ndarray, float]:
    """1000 N(0,1) points coarse-grained at ``scale``: block means off any
    grid, with r = 0.2 SD of the means."""
    return _sd_tolerance(coarse_grain(Series(_rng(1000).normal(size=1000)), scale).values)


# name -> (series, tolerance); the brute force checks every one
CASES = {
    "grid128-16k": lambda: (np.round(_rng(16384).normal(size=16384) * 128) / 128, 3 / 128),
    "integers-8k": lambda: (_rng(8192).integers(0, 20, size=8192).astype(float), 2.0),
    "tenths-8k": lambda: (np.round(_rng(8193).normal(size=8192), 1), 0.1),
    "binary-16k": lambda: (_rng(16385).integers(0, 2, size=16384).astype(float), 1.0),
    "rr128-16k": lambda: (_rr_like(16384), 1 / 128),
    "periodic-8k": lambda: _periodic(8192),
    "normal-8k-b127": lambda: (_rng(8194).normal(size=8192), 0.315),
    "normal-8k-b131": lambda: (_rng(8194).normal(size=8192), 0.32),
    "normal-1k": lambda: _sd_tolerance(_rng(1000).normal(size=1000)),
    "uniform-1k": lambda: _sd_tolerance(_rng(1001).uniform(size=1000)),
    "exponential-1k": lambda: _sd_tolerance(_rng(1002).exponential(size=1000)),
    **{f"normal-1k-scale{s}": (lambda s=s: _grained(s)) for s in range(2, 6)},
    "permutation128-1k": lambda: (_rng(1003).permutation(1000) / 128, 40 / 128),
    "rule-below-4k": lambda: (_rng(4096).normal(size=4096), 0.436),
    "rule-above-4k": lambda: (_rng(4096).normal(size=4096), 0.437),
    "ar95-8k": lambda: _sd_tolerance(arma_simulate((0.95,), (), 8192, 8192).values),
    "rr128-16k-scale3": lambda: _sd_tolerance(coarse_grain(Series(_rr_like(16384)), 3).values),
    "rule-grid-below-8k": lambda: (_integers(126), 2.0),
    "rule-grid-above-8k": lambda: (np.append(_integers(126)[:-1], 126.0), 2.0),
    "straddle-8k": lambda: (np.tile([0.0, 1.0], 4096) + _rng(8196).normal(0, 0.25, 8192), 1.0),
    "periodic-16k-scale2": lambda: _periodic_grained(16384, 2),
}

# the same at 64k, checked against one tree over the distinct templates
LONG = {
    "normal-64k": lambda: (_rng(65536).normal(size=65536), 0.2),
    "grid128-64k": lambda: (np.round(_rng(65537).normal(size=65536) * 128) / 128, 3 / 128),
    "periodic-64k": lambda: _periodic(65536),
    "rr128-64k": lambda: (_rr_like(65536), 1 / 128),
    "ar95-64k": lambda: _sd_tolerance(arma_simulate((0.95,), (), 65536, 65536).values),
}


@lru_cache(maxsize=None)
def _series(name: str) -> tuple[np.ndarray, float]:
    return {**CASES, **LONG}[name]()


@lru_cache(maxsize=None)
def _brute_force(name: str) -> tuple[int, int]:
    """(A, B) for m=2 from every pair i < j, a block of rows at a time."""
    x, r = _series(name)
    nt = x.size - 2
    t0, t1, t2 = x[:nt], x[1:nt + 1], x[2:nt + 2]
    a = b = 0
    for lo in range(0, nt, BLOCK):
        hi = min(lo + BLOCK, nt)
        # the columns start at lo, so the pairs i < j are the strict upper
        # triangle of the block's leading square
        near = np.abs(t0[lo:hi, None] - t0[None, lo:]) <= r
        near &= np.abs(t1[lo:hi, None] - t1[None, lo:]) <= r
        near &= np.arange(lo, hi)[:, None] < np.arange(lo, nt)[None, :]
        b += int(np.count_nonzero(near))
        near &= np.abs(t2[lo:hi, None] - t2[None, lo:]) <= r
        a += int(np.count_nonzero(near))
    return a, b


@lru_cache(maxsize=None)
def _single_tree(name: str) -> tuple[int, int]:
    """(A, B) for m=2 from one ``count_neighbors`` of a tree over the
    distinct templates against itself."""
    x, r = _series(name)
    nt = x.size - 2
    counts = []
    for k in (2, 3):
        templates, weights = np.unique(sliding_window_view(x, k)[:nt], axis=0,
                                       return_counts=True)
        tree = cKDTree(templates)
        counts.append((int(tree.count_neighbors(tree, r, p=np.inf, weights=weights)) - nt) // 2)
    b, a = counts
    return a, b


@pytest.mark.parametrize("name", list(CASES))
def test_pair_counts_equal_the_brute_force(name):
    x, r = _series(name)
    assert entropy._pair_counts(x, 2, r) == _brute_force(name)


@pytest.mark.parametrize("name, strategy", [("rule-below-4k", "extended"),
                                            ("rule-above-4k", "trees"),
                                            ("grid128-16k", "extended"),
                                            ("ar95-8k", "trees"),
                                            ("rule-grid-below-8k", "grid"),
                                            ("rule-grid-above-8k", "extended")])
def test_rule_cases_straddle_the_rule(name, strategy):
    x, r = _series(name)
    assert entropy._strategy(x, 2, r) == strategy


@pytest.mark.parametrize("name", list(CASES))
def test_grid_is_chosen_exactly_where_the_rule_holds(name):
    x, r = _series(name)
    assert (entropy._strategy(x, 2, r) == "grid") == \
        ((np.unique(x).size + 1) ** 3 <= entropy._GRID_CELLS * (x.size - 2))


@pytest.mark.parametrize("name", [*CASES, *LONG])
def test_grid_bound_is_at_least_b(name):
    x, r = _series(name)
    _, b = _brute_force(name) if name in CASES else _single_tree(name)
    assert entropy._grid_bound(x, x.size - 2, r) >= b


def _fits(strategy: str, name: str) -> bool:
    """``extended`` lists every length-m pair of a raw-template tree, kept
    within twice the bound.
    ``grid`` fills a table of (K+1)^(m+1) cells over the K distinct values,
    kept within twice its bound."""
    x, _ = _series(name)
    nt = x.size - 2
    if strategy == "grid":
        return (np.unique(x).size + 1) ** 3 <= 2 * entropy._GRID_CELLS * nt
    if strategy != "extended":
        return True
    return _brute_force(name)[1] <= 2 * entropy._LIST_BELOW * nt


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("strategy", list(entropy._STRATEGIES))
def test_every_fit_strategy_equals_the_brute_force(strategy, name):
    if not _fits(strategy, name):
        pytest.skip(f"{strategy} is not fit for {name}")
    x, r = _series(name)
    assert entropy._STRATEGIES[strategy](x, 2, r) == _brute_force(name)


@pytest.mark.parametrize("name", list(LONG))
def test_pair_counts_equal_one_tree_count(name):
    x, r = _series(name)
    assert entropy._pair_counts(x, 2, r) == _single_tree(name)
