"""Per-N timings of sample entropy (m=2, r=0.2*SD) on three kinds of series.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_sampen.py --benchmark-json BENCH_sampen.json

``-k "not 64k"`` leaves out the longest series. N(0,1) values are tie-free;
the 1/128 grid and the binary series are tie-heavy, the input on which a
spatial index over the raw templates cannot split identical points.
"""
import numpy as np
import pytest

from tscomplex import Series, sample_entropy

SIZES = [pytest.param(n, id=f"{n // 1024}k") for n in (1024, 4096, 16384, 65536)]


def _series(kind: str, n: int) -> Series:
    rng = np.random.Generator(np.random.PCG64(n))
    if kind == "normal":
        return Series(rng.normal(size=n))
    if kind == "grid128":
        return Series(np.round(rng.normal(size=n) * 128) / 128)
    return Series(rng.integers(0, 2, size=n).astype(float))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["normal", "grid128", "binary"])
def test_sample_entropy(benchmark, kind, n):
    series = _series(kind, n)
    result = benchmark(sample_entropy, series)
    assert 0 < result.a_count <= result.b_count
