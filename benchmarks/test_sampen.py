"""Per-N timings of sample entropy (m=2, r=0.2*SD) on five kinds of series.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_sampen.py --benchmark-json BENCH_sampen.json

``-k "not 64k"`` leaves out the longest series. N(0,1) values are tie-free;
the 1/128 grid, the binary series and the RR-like series (an ARMA(2,2)
path scaled to 0.8 s +/- 50 ms and rounded to the 1/128 s grid, at 8k and
64k points only) are tie-heavy, the input on which a spatial index over
the raw templates cannot split identical points. The noisy period-4 orbit
(logistic r=3.5 plus noise of 0.05 SD) has dense matches.
``entropy._strategy`` sends the binary series (2 distinct values) and the
RR-like ones (about 50) to the ``grid`` strategy, whose rank table of
(D + 2)^3 cells stays under ``entropy._GRID_CELLS`` per template; the
1/128 grid holds 430-880 distinct values, too many for it. It sends only
``normal-1k`` to the ``extended`` strategy (tie-free, 57 first-coordinate
matches per template, under ``entropy._LIST_BELOW`` = 128); N(0,1) from
4k on (230-3700) and the periodic orbit (146-9500) have too many, and
the 1/128 grid has ties, so they take the ``trees``. There, matches per
template at length m decide how the length-(m+1) pairs are counted:
N(0,1) and the grid find 6-104 up to 16k and list them, and about 410 at
64k, counted in bulk; periodic finds about 127 at 1k, just under the
switch, and 510-8200 from 4k on, counted in bulk.
"""
import numpy as np
import pytest

from tscomplex import Series, add_noise, arma_simulate, logistic_map, sample_entropy

SIZES = (1024, 4096, 16384, 65536)
CASES = [*((kind, n) for kind in ("normal", "grid128", "binary", "periodic") for n in SIZES),
         ("rr128", 8192), ("rr128", 65536)]


def _series(kind: str, n: int) -> Series:
    rng = np.random.Generator(np.random.PCG64(n))
    if kind == "normal":
        return Series(rng.normal(size=n))
    if kind == "grid128":
        return Series(np.round(rng.normal(size=n) * 128) / 128)
    if kind == "periodic":
        return add_noise(logistic_map(3.5, 0.3, keep=n, total=n + 1000), n, sd_multiplier=0.05)
    if kind == "rr128":
        z = arma_simulate((0.9, -0.2), (-0.7, 0.1), n, n).values
        return Series(np.round((0.8 + 0.05 * (z - z.mean()) / z.std(ddof=1)) * 128) / 128)
    return Series(rng.integers(0, 2, size=n).astype(float))


@pytest.mark.parametrize("kind, n", [pytest.param(kind, n, id=f"{kind}-{n // 1024}k")
                                     for kind, n in CASES])
def test_sample_entropy(benchmark, kind, n):
    series = _series(kind, n)
    result = benchmark(sample_entropy, series)
    assert 0 < result.a_count <= result.b_count
