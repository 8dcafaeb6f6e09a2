"""Per-N timings of sample entropy (m=2, r=0.2*SD) on four kinds of series.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_sampen.py --benchmark-json BENCH_sampen.json

``-k "not 64k"`` leaves out the longest series. N(0,1) values are tie-free;
the 1/128 grid and the binary series are tie-heavy, the input on which a
spatial index over the raw templates cannot split identical points. The
noisy period-4 orbit (logistic r=3.5 plus noise of 0.05 SD) has dense
matches. ``entropy._strategy`` sends only ``normal-1k`` to the
``extended`` strategy (tie-free, 57 first-coordinate matches per
template, under ``entropy._LIST_BELOW`` = 128); N(0,1) from 4k on (230-3700)
and the periodic orbit (146-9500) have too many, and the grid and binary
series have ties, so they take the ``trees``. There, matches per template
at length m decide how the length-(m+1) pairs are counted: N(0,1) and
the grid find 6-104 up to 16k and list them, and about 410 at 64k,
counted in bulk; binary and periodic find about 127 at 1k, just under
the switch, and 510-8200 from 4k on, counted in bulk.
"""
import numpy as np
import pytest

from tscomplex import Series, add_noise, logistic_map, sample_entropy

SIZES = [pytest.param(n, id=f"{n // 1024}k") for n in (1024, 4096, 16384, 65536)]


def _series(kind: str, n: int) -> Series:
    rng = np.random.Generator(np.random.PCG64(n))
    if kind == "normal":
        return Series(rng.normal(size=n))
    if kind == "grid128":
        return Series(np.round(rng.normal(size=n) * 128) / 128)
    if kind == "periodic":
        return add_noise(logistic_map(3.5, 0.3, keep=n, total=n + 1000), n, sd_multiplier=0.05)
    return Series(rng.integers(0, 2, size=n).astype(float))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["normal", "grid128", "binary", "periodic"])
def test_sample_entropy(benchmark, kind, n):
    series = _series(kind, n)
    result = benchmark(sample_entropy, series)
    assert 0 < result.a_count <= result.b_count
