"""Per-N timings of the two ordinal-pattern scores on two kinds of series.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_ordinal.py --benchmark-json BENCH_ordinal.json

``-k "not 64k"`` leaves out the longest series. Permutation entropy reads
the N-n+1 overlapping windows, the permutation test the N//t disjoint
groups; n = t = 5 is the default, 8 the largest accepted. N(0,1) values
are tie-free; the 1/128 grid is tie-heavy, so equal values in a window
exercise the earlier-index-first rule.
"""
import numpy as np
import pytest

from tscomplex import PermEnParams, Series, permutation_entropy, permutation_test

SIZES = [pytest.param(n, id=f"{n // 1024}k") for n in (1024, 4096, 16384, 65536)]
KINDS = ["normal", "grid128"]
ORDERS = [5, 8]


def _series(kind: str, n: int) -> Series:
    rng = np.random.Generator(np.random.PCG64(n))
    x = rng.normal(size=n)
    return Series(x if kind == "normal" else np.round(x * 128) / 128)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS)
def test_permutation_entropy(benchmark, order, kind, n):
    series = _series(kind, n)
    value = benchmark(permutation_entropy, series, PermEnParams(n=order))
    assert 0 < value <= 1


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS)
def test_permutation_test(benchmark, order, kind, n):
    series = _series(kind, n)
    result = benchmark(permutation_test, series, order)
    assert result.group_count == n // order
