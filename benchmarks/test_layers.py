"""Per-N timings of two per-sample layers: coarse-graining and the runs test.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_layers.py --benchmark-json BENCH_layers.json

``-k "not 64k"`` leaves out the longest series. The test names follow the
layers they time (``core.coarse_grain``, ``randomness.runs_test``).
``coarse_grain`` is timed at scales 2, 3 and 5, where the block sums are
built one column at a time, and at 10, where numpy's ``mean`` sums each
block. The runs test is timed in both variants on tie-free N(0,1) values.
"""
import numpy as np
import pytest

from tscomplex import Series, coarse_grain, runs_test

SIZES = [pytest.param(n, id=f"{n // 1024}k") for n in (1024, 4096, 16384, 65536)]


def _series(n: int) -> Series:
    return Series(np.random.Generator(np.random.PCG64(n)).normal(size=n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("scale", [2, 3, 5, 10])
def test_coarse_grain(benchmark, scale, n):
    series = _series(n)
    out = benchmark(coarse_grain, series, scale)
    assert len(out) == n // scale


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("variant", ["above_below_median", "up_down"])
def test_runs_test(benchmark, variant, n):
    series = _series(n)
    result = benchmark(runs_test, series, variant)
    assert result.variant == variant
