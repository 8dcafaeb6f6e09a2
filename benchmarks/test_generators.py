"""Per-N timings of the generators: the iid draws, the logistic map, the ARMA
filter and a generator spec built end to end.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_generators.py --benchmark-json BENCH_generators.json

``-k "not 64k"`` leaves out the longest series. The test names follow the
layers they time (``generators.generate_iid``, ``generators.logistic_map``,
``generators.arma_simulate``). ``logistic_map`` and ``arma_simulate`` run
with a burn-in of 1000 and 500 samples, the ones the ``scan`` workload and
the ARMA tables use; ``build_series`` times the three spec kinds of that
workload, so it includes the spec checks and the table lookup.
"""
import json

import pytest

from tscomplex import GeneratorSpec, arma_simulate, build_series, generate_iid, logistic_map

SIZES = [pytest.param(n, id=f"{n // 1024}k") for n in (1024, 4096, 16384, 65536)]
ARMA22 = ((0.9, -0.2), (-0.7, 0.1))
# the fields of each kind's spec besides its length, as the scan workload writes them
SPECS = {
    "normal": {"kind": "normal", "seed": 7},
    "arma": {"kind": "arma", "params": {"ar": list(ARMA22[0]), "ma": list(ARMA22[1])},
             "seed": 7},
    "logistic_map": {"kind": "logistic_map", "params": {"r": 3.9, "x0": 0.3}, "burn_in": 1000},
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dist", ["uniform", "normal", "exponential"])
def test_generate_iid(benchmark, dist, n):
    out = benchmark(generate_iid, dist, n, 7)
    assert len(out) == n


@pytest.mark.parametrize("n", SIZES)
def test_logistic_map(benchmark, n):
    out = benchmark(logistic_map, 3.9, 0.3, n, n + 1000)
    assert len(out) == n


@pytest.mark.parametrize("n", SIZES)
def test_arma_simulate(benchmark, n):
    out = benchmark(arma_simulate, *ARMA22, n, 7)
    assert len(out) == n


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", list(SPECS))
def test_build_series(benchmark, kind, n):
    text = json.dumps({**SPECS[kind], "length": n})
    out = benchmark(lambda: build_series(GeneratorSpec.from_json(text)))
    assert len(out) == n
