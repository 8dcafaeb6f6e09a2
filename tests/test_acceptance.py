"""Acceptance gate: one test (or test group) per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion. Criteria 8 and 9 need user-supplied data files (set
TSCOMPLEX_DATA_DIR or create ./data); they skip cleanly when absent.

Three assertions are expected to fail and are marked xfail with the
analysis:

* criterion 1, r=3.9 sampen and permtest cells: the reference table's
  r=3.9 column mixes results from different orbit realizations (its own
  sampen, chi-square and runs cells are mutually inconsistent -- no single
  orbit reproduces them together, while the same recipe reproduces the
  whole r=3.7 column cell-exactly at every scale). Best achievable:
  sampen off by 1.04e-3 against a 1e-3 tolerance, chi-square off by ~48.
* criterion 4: full-chain permutation-entropy monotonicity across six
  scales holds with probability ~0.78 per replication (measured over 300
  replications), so >= 27/30 is reachable only by seed-shopping; the
  pre-registered seed 42 gives 25/30.
"""
import hashlib
import itertools
import json
import os
import shlex
import time
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from tscomplex import (
    PermEnParams,
    SampEnParams,
    Series,
    arma_simulate,
    chi_square_sf,
    generate_iid,
    logistic_map,
    normal_sf,
    ordinal_pattern_counts,
    permutation_entropy,
    permutation_test,
    sample_entropy,
    write_series,
)
from tscomplex.cli import main
from tscomplex.experiments import reproduce
from tscomplex.report import render_report

from oracles import chi2_sf_quad, normal_sf_quad, sampen_pairs_rowwise

SEED = 42  # pre-registered; never tuned to outcomes


def _data_dir() -> Path | None:
    env = os.environ.get("TSCOMPLEX_DATA_DIR")
    if env:
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "data"
    return local if local.exists() else None


def announce(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# criterion 1: deterministic logistic score battery, runtime < 5 s
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table2():
    t0 = time.perf_counter()
    result = reproduce("table2", seed=SEED)
    result.elapsed = time.perf_counter() - t0
    return result


def _cell(result, label, metric):
    return next(c for c in result.comparisons
                if c.label == label and c.metric == metric and c.scale == 1)


def test_criterion_01_table2_reproducible_cells(table2):
    flagged = [c for c in table2.comparisons if c.note.startswith("reference cell")]
    assert len(flagged) == 2
    checked = 0
    for c in table2.comparisons:
        if c.passed is None or c in flagged:
            continue
        assert c.passed, c.line()
        checked += 1
    assert checked >= 12
    assert table2.elapsed < 5.0, f"table2 took {table2.elapsed:.2f}s"
    announce(f"criterion 1 (reproducible cells): PASS, {checked} cells, "
             f"{table2.elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="r=3.9 reference column mixes orbit realizations; the recipe that "
           "matches every r=3.5/r=3.7 cell gives 0.48726 here, 1.04e-3 from "
           "the reference against a 1e-3 tolerance",
)
def test_criterion_01_r39_sampen_cell(table2):
    cell = _cell(table2, "logistic r=3.9", "sampen")
    assert abs(cell.observed - 0.4883) <= 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="r=3.9 reference column mixes orbit realizations; its chi-square "
           "cell corresponds to an orbit one step offset from its own sampen "
           "cell (closest achievable differs by ~48 against a 0.5 tolerance)",
)
def test_criterion_01_r39_permtest_cell(table2):
    cell = _cell(table2, "logistic r=3.9", "permtest")
    assert abs(cell.observed - 1200.328) <= 0.5


# ---------------------------------------------------------------------------
# criterion 2: deterministic multi-scale battery, runtime < 10 s
# ---------------------------------------------------------------------------

def test_criterion_02_table3_mse():
    t0 = time.perf_counter()
    result = reproduce("table3_logistic", seed=SEED)
    elapsed = time.perf_counter() - t0
    exact = [c for c in result.comparisons if c.kind == "exact"]
    assert len(exact) >= 19
    for c in exact:
        assert c.passed, c.line()
    assert elapsed < 10.0, f"table3 took {elapsed:.2f}s"
    announce(f"criterion 2: PASS, {len(exact)} cells, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criteria 3 and 4: iid battery bands / permen monotonicity
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table1():
    return reproduce("table1", seed=SEED, replications=30)


def test_criterion_03_table1_bands(table1):
    named = {c.name: c for c in table1.checks}
    for key, check in named.items():
        if "non-increasing" in key:
            continue
        assert check.passed, check.line()
    announce("criterion 3: PASS, " + "; ".join(
        c.detail for n, c in named.items() if "non-increasing" not in n))


@pytest.mark.xfail(
    strict=False,
    reason="full-chain monotonicity across scales 1..10 holds with measured "
           "probability ~0.78 per replication; >= 27/30 has ~7% probability "
           "for any fresh seed (pre-registered seed 42 yields 25/30)",
)
def test_criterion_04_permen_monotonicity(table1):
    check = next(c for c in table1.checks if "non-increasing" in c.name)
    announce(f"criterion 4: {'PASS' if check.passed else 'FAIL'} ({check.detail})")
    assert check.passed, check.line()


# ---------------------------------------------------------------------------
# criterion 5: ARMA ordering battery
# ---------------------------------------------------------------------------

def test_criterion_05_arma_ordering():
    result = reproduce("arma_table4", seed=SEED, replications=10)
    for check in result.checks:
        assert check.passed, check.line()
    announce("criterion 5: PASS, " + "; ".join(c.detail for c in result.checks))


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalence on 200 + 200 random series
# ---------------------------------------------------------------------------

def test_criterion_06_sampen_oracle_equivalence():
    from tscomplex import NumericalError

    rng = np.random.Generator(np.random.PCG64(SEED))
    for i in range(200):
        n = int(rng.integers(20, 301))
        m = int(rng.integers(1, 4))
        x = rng.normal(size=n)
        r = 0.2 * float(np.std(x, ddof=1))
        try:
            res = sample_entropy(Series(x),
                                 SampEnParams(m=m, r_factor=r, r_mode="absolute"))
            counts = (res.a_count, res.b_count)
        except NumericalError as exc:
            counts = (exc.a_count, exc.b_count)  # zero-count series still compare
        assert counts == sampen_pairs_rowwise(x, m, r), \
            f"series {i}: counts diverge (n={n}, m={m})"
    announce("criterion 6a: PASS, 200 series, exact A/B equality")


def test_criterion_06_permen_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(SEED + 1))
    for i in range(200):
        n_tuple = int(rng.integers(3, 6))
        size = int(rng.integers(n_tuple + 1, 301))
        x = np.round(rng.normal(size=size), 1)  # ties exercise the stable sort
        got = ordinal_pattern_counts(Series(x), n_tuple)
        expected = np.zeros(factorial(n_tuple), dtype=int)
        rank = {p: k for k, p in enumerate(itertools.permutations(range(n_tuple)))}
        for j in range(size - n_tuple + 1):
            window = x[j:j + n_tuple].tolist()
            pattern = tuple(sorted(range(n_tuple), key=lambda k: window[k]))
            expected[rank[pattern]] += 1
        assert np.array_equal(got, expected), f"series {i}: histogram diverges"
    announce("criterion 6b: PASS, 200 series, exact histogram equality")


# ---------------------------------------------------------------------------
# criterion 7: closed forms and tail-probability checks
# ---------------------------------------------------------------------------

def test_criterion_07_closed_forms():
    for g in (10, 100, 200):
        for t in (3, 5):
            chi = permutation_test(Series(np.arange(g * t, dtype=float)), t).chi_square
            assert chi == g * (factorial(t) - 1)
    const = sample_entropy(Series([5.0] * 100),
                           SampEnParams(m=2, r_factor=0.1, r_mode="absolute"))
    assert const.value == 0.0
    assert permutation_entropy(Series(np.arange(100.0)), PermEnParams(n=5)) == 0.0
    assert abs(chi_square_sf(3.841, 1) - 0.05) <= 5e-4
    assert chi_square_sf(3.841, 1) == pytest.approx(chi2_sf_quad(3.841, 1), abs=1e-10)
    assert abs(normal_sf(1.959964) - 0.025) <= 1e-6
    assert normal_sf(1.959964) == pytest.approx(normal_sf_quad(1.959964), abs=1e-12)
    announce("criterion 7: PASS")


# ---------------------------------------------------------------------------
# criterion 8: Santa Fe battery (conditional on the data file)
# ---------------------------------------------------------------------------

def test_criterion_08_santafe():
    result = reproduce("santafe", seed=SEED, data_dir=_data_dir())
    if result.status == "skipped":
        announce("criterion 8: SKIPPED (laser data file not supplied)")
        pytest.skip("skipped: Santa Fe data file not supplied")
    for c in result.comparisons:
        if c.kind == "exact" and c.scale == 1:
            assert c.passed, c.line()
    for check in result.checks:
        assert check.passed, check.line()
    announce("criterion 8: PASS")


# ---------------------------------------------------------------------------
# criterion 9: CHF/NSR group comparison (conditional on the data files)
# ---------------------------------------------------------------------------

def test_criterion_09_chf_nsr():
    result = reproduce("chf_nsr", data_dir=_data_dir())
    if result.status == "skipped":
        announce("criterion 9: SKIPPED (RR-interval data not supplied)")
        pytest.skip("skipped: CHF/NSR data not supplied")
    assert [c.name for c in result.checks] == [
        "sampen CHF vs NSR Welch p < 0.05", "runstest CHF vs NSR Welch p < 0.05",
        "permen CHF vs NSR Welch p >= 0.05", "permtest CHF vs NSR Welch p >= 0.05"]
    for check in result.checks:
        assert check.passed, check.line()
    announce("criterion 9: PASS")


# ---------------------------------------------------------------------------
# criterion 10: byte determinism of every output format
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path, capsys):
    spec = ('{"kind":"logistic_map","params":{"r":3.7,"x0":0.3},'
            '"length":1000,"burn_in":4000,"seed":0,"label":"chaos"}')
    blobs = []
    for i in range(2):
        csv_p = tmp_path / f"{i}.csv"
        json_p = tmp_path / f"{i}.json"
        svg_p = tmp_path / f"{i}.svg"
        assert main(["mse", "--spec", spec, "--out", str(csv_p)]) == 0
        assert main(["mse", "--spec", spec, "--format", "json",
                     "--out", str(json_p)]) == 0
        assert main(["plot", str(json_p), "--kind", "line_by_scale",
                     "--out", str(svg_p)]) == 0
        blobs.append((csv_p.read_bytes(), json_p.read_bytes(), svg_p.read_bytes()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    announce("criterion 10: PASS (csv, json, svg byte-identical)")


# ---------------------------------------------------------------------------
# golden outputs: stdout of reproduce, analyze and mse runs, pinned by SHA-256
# ---------------------------------------------------------------------------

# The default-flag entries were recorded before the per-table scoring loops
# were folded into mse_sweep; the santafe and small-sweep entries before the
# recipes moved behind one experiment table; the chf_nsr entry when that
# experiment joined the table; the generate entries, one spec per generator
# kind, before the kinds moved into one table. The exponential entry lists two
# digests: its draws go through numpy's float64 log1p, whose AVX512_SKX loop
# and libm fallback differ in the last bit for about 7 % of arguments.
# Re-record only with a change that is meant to alter printed numbers.
GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


def _reproduce_stdout(result) -> str:
    """What ``reproduce <t> --print-table --format json`` prints for ``result``."""
    lines = "".join(line + "\n" for line in result.summary_lines())
    return lines + render_report(result.report, "json")


def test_golden_outputs(table1, table2, tmp_path, capsys):
    # the two slowest tables come from the module fixtures above, which run
    # them with the command's defaults (seed 42, 30 replications)
    computed = {f"reproduce {name} --print-table --format json": result
                for name, result in (("table1", table1), ("table2", table2))}
    # santafe and chf_nsr run on deterministic substitutes for their data files
    write_series(logistic_map(3.9, 0.3, 1000, 5000), tmp_path / "santafe_a.txt")
    for group, make in (("chf", lambda s: arma_simulate([0.9], [], 1000, s)),
                        ("nsr", lambda s: generate_iid("normal", 1000, 100 + s))):
        (tmp_path / group).mkdir()
        for s in range(3):
            write_series(make(s), tmp_path / group / f"{group}{s}.txt")
    for command, digest in GOLDEN.items():
        argv = shlex.split(command.replace("{data_dir}", str(tmp_path)))
        if command in computed:
            out = _reproduce_stdout(computed[command])
        else:
            assert main(argv) == 0
            out = capsys.readouterr().out
        accepted = digest if isinstance(digest, list) else [digest]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() in accepted, command
    announce(f"golden outputs: PASS, {len(GOLDEN)} commands byte-identical")
