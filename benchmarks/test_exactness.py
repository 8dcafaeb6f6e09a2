"""Exactness gate for the sample-entropy pair counts at the sizes users run.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_exactness.py -q

The tier-1 oracle tests check ``entropy._pair_counts`` at a few hundred
points. Here it is compared, at 8k-16k points, with a blocked numpy brute
force over every template pair (m=2), on tie-heavy series whose pair
distances often equal r exactly, where an off-by-one-ulp tolerance or an
unsound box bound would change a count, and on the dense noisy period-4
orbit. At 64k, where the brute force is too slow, the counts split over
several CPUs are compared with one weighted ``count_neighbors`` of a
single tree over the distinct templates. Each comparison runs as if the
process had 1, 2 and 3 CPUs, so the kernel counts in 1, 2 and 3 parts.
The brute force takes a few seconds per series.
"""
from functools import lru_cache

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from tscomplex import add_noise, arma_simulate, logistic_map
from tscomplex import entropy

CPUS = [1, 2, 3]
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


# name -> (series, tolerance); the brute force checks the 8k-16k ones
CASES = {
    "grid128-16k": lambda: (np.round(_rng(16384).normal(size=16384) * 128) / 128, 3 / 128),
    "integers-8k": lambda: (_rng(8192).integers(0, 20, size=8192).astype(float), 2.0),
    "tenths-8k": lambda: (np.round(_rng(8193).normal(size=8192), 1), 0.1),
    "binary-16k": lambda: (_rng(16385).integers(0, 2, size=16384).astype(float), 1.0),
    "rr128-16k": lambda: (_rr_like(16384), 1 / 128),
    "periodic-8k": lambda: _periodic(8192),
}

# the same at 64k, checked against one tree over the distinct templates
LONG = {
    "normal-64k": lambda: (_rng(65536).normal(size=65536), 0.2),
    "grid128-64k": lambda: (np.round(_rng(65537).normal(size=65536) * 128) / 128, 3 / 128),
    "periodic-64k": lambda: _periodic(65536),
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


@pytest.fixture(params=CPUS, ids=[f"{c}cpu" for c in CPUS])
def cpus(request, monkeypatch):
    """Run as if the process could run on 1, 2 or 3 CPUs, with a pool of
    that many workers, shut down after the test."""
    monkeypatch.setattr(entropy, "_cpus", lambda: request.param)
    monkeypatch.setattr(entropy, "_pool", None)
    pool = entropy._executor()
    yield request.param
    pool.shutdown()


@pytest.mark.parametrize("name", list(CASES))
def test_pair_counts_equal_the_brute_force(cpus, name):
    x, r = _series(name)
    assert entropy._pair_counts(x, 2, r) == _brute_force(name)


@pytest.mark.parametrize("name", list(LONG))
def test_split_counts_equal_one_tree_count(cpus, name):
    x, r = _series(name)
    assert entropy._pair_counts(x, 2, r) == _single_tree(name)
