import numpy as np
import pytest

from tscomplex import Series, derive_rng


@pytest.fixture
def rng():
    return derive_rng(12345)


@pytest.fixture
def uniform_series(rng):
    return Series(rng.random(1000), "uniform-1k")


def make_series(values, label=None):
    return Series(np.asarray(values, dtype=float), label)


TIE_KINDS = ("integer", "grid128", "constant_runs")


def tie_heavy_values(seed, kind, size, run):
    """A series of ``size`` samples with many equal values: small integers,
    a 1/128 grid, or runs of up to ``2 * run - 1`` equal samples."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "integer":
        return rng.integers(-3, 4, size=size).astype(float)
    if kind == "grid128":
        return np.round(rng.normal(size=size) * 128) / 128
    return np.repeat(rng.normal(size=size), rng.integers(1, 2 * run, size=size))[:size]


def argsort_lehmer_codes(rows):
    """The definition: the stable ascending argsort of each row, as a Lehmer code."""
    n = rows.shape[1]
    sigma = np.argsort(rows, axis=1, kind="stable")
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for i in range(n - 1):
        codes = codes * (n - i) + (sigma[:, i + 1:] < sigma[:, i:i + 1]).sum(axis=1)
    return codes
