"""End-to-end timings of the command line: ``reproduce`` for the five
built-in tables, ``analyze`` and ``mse`` on a 16k-point file and
``mse --fixed-r`` on an 8k-point noisy period-4 orbit.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_reproduce.py --benchmark-json BENCH_reproduce.json

Each round is one ``cli.main`` call, as a user's command would run it, with
the report written to a file. The tables run at their default replications
and seed; ``analyze`` scores scale 1 and ``mse`` sweeps the default
scales, both with all four metrics. The N(0,1) file has sparse
sample-entropy matches; the logistic r=3.5 orbit plus noise of 0.05 SD,
with r fixed at 0.2 of the input's SD, has dense ones. Every command
shares its (series, scale) cells over the CPUs in the process's affinity
set, so ``mse`` on one file scores its six scales side by side, while
``analyze`` on one file is a single cell in one thread. So record the CPU
count (``nproc``) with the timings, and pin with ``taskset`` to time fewer.
"""
import numpy as np
import pytest

from tscomplex import Series, add_noise, logistic_map, write_series
from tscomplex.cli import main

TABLES = ["table1", "table2", "table3_logistic", "arma_table4", "arma_table5"]
ROUNDS = 3


@pytest.mark.parametrize("table", TABLES)
def test_reproduce(benchmark, tmp_path, table):
    argv = ["reproduce", table, "--print-table", "--format", "json",
            "--out", str(tmp_path / "report.json")]
    code = benchmark.pedantic(main, args=(argv,), rounds=ROUNDS, iterations=1)
    assert code == 0


@pytest.fixture
def normal16k(tmp_path):
    path = tmp_path / "normal16k.txt"
    write_series(Series(np.random.Generator(np.random.PCG64(16384)).normal(size=16384)), path)
    return path


def test_analyze_16k(benchmark, tmp_path, normal16k):
    argv = ["analyze", str(normal16k), "--out", str(tmp_path / "report.csv")]
    code = benchmark.pedantic(main, args=(argv,), rounds=ROUNDS, iterations=1)
    assert code == 0
    assert (tmp_path / "report.csv").read_text().count("\n") == 1 + 4


def test_mse_16k(benchmark, tmp_path, normal16k):
    argv = ["mse", str(normal16k), "--out", str(tmp_path / "report.csv")]
    code = benchmark.pedantic(main, args=(argv,), rounds=ROUNDS, iterations=1)
    assert code == 0
    assert (tmp_path / "report.csv").read_text().count("\n") == 1 + 6 * 4


def test_mse_periodic_8k(benchmark, tmp_path):
    path = tmp_path / "periodic8k.txt"
    write_series(add_noise(logistic_map(3.5, 0.3, keep=8192, total=9192), 8192,
                           sd_multiplier=0.05), path)
    argv = ["mse", str(path), "--fixed-r", "--out", str(tmp_path / "report.csv")]
    code = benchmark.pedantic(main, args=(argv,), rounds=ROUNDS, iterations=1)
    assert code == 0
    assert (tmp_path / "report.csv").read_text().count("\n") == 1 + 6 * 4
