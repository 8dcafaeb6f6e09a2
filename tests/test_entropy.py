"""Sample entropy, permutation entropy, and the multi-scale sweep."""
import math
from math import comb, factorial, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tscomplex import (
    DataError,
    NumericalError,
    PermEnParams,
    SampEnParams,
    Series,
    generate_iid,
    mse_sweep,
    ordinal_pattern_counts,
    permutation_entropy,
    sample_entropy,
)
from tscomplex.experiments import logistic_recipe
from tscomplex.metrics import build_metrics, AnalysisConfig

from conftest import make_series
from oracles import ordinal_counts_direct, permen_direct, sampen_pairs_direct

ABS_R = dict(r_mode="absolute")


def sampen_counts(series, params=SampEnParams()):
    """(A, B) behind a sample entropy, also when a zero count makes it raise."""
    try:
        res = sample_entropy(series, params)
    except NumericalError as exc:
        return exc.a_count, exc.b_count
    return res.a_count, res.b_count


class TestSampleEntropy:
    def test_constant_series_all_pairs_match(self):
        res = sample_entropy(Series([5.0] * 100), SampEnParams(m=2, r_factor=0.1, **ABS_R))
        # 98 templates at both lengths -> C(98,2) pairs each
        assert res.a_count == res.b_count == comb(98, 2)
        assert res.value == 0.0

    def test_derived_golden_small_series(self):
        # brute-force oracle over all template pairs, frozen: A = B = 3
        x = [1, 2, 3, 2, 1, 2, 3, 2, 1]
        a, b = sampen_pairs_direct(x, m=2, r=0.5)
        res = sample_entropy(make_series(x), SampEnParams(m=2, r_factor=0.5, **ABS_R))
        assert (res.a_count, res.b_count) == (a, b) == (3, 3)
        assert res.value == 0.0

    def test_logistic_battery_value(self):
        res = sample_entropy(logistic_recipe(3.7))
        assert res.value == pytest.approx(0.3479, abs=1e-3)

    def test_uniform_sanity_band(self):
        res = sample_entropy(generate_iid("uniform", 1000, seed=11))
        assert 2.0 <= res.value <= 2.5

    def test_too_short_series(self):
        with pytest.raises(DataError, match="too short"):
            sample_entropy(make_series([1, 2, 3]), SampEnParams(m=2))

    def test_constant_series_relative_r_degenerates(self):
        with pytest.raises(NumericalError, match="degenerate tolerance"):
            sample_entropy(Series([3.0] * 50))

    def test_no_matches_is_an_error_with_counts(self):
        # widely spaced values, tiny tolerance: B = 0
        x = make_series([1, 10, 100, 1000, 10000, 100000])
        with pytest.raises(NumericalError, match="insufficient matches") as exc_info:
            sample_entropy(x, SampEnParams(m=2, r_factor=1e-6, **ABS_R))
        assert exc_info.value.b_count == 0

    def test_a_zero_is_an_error_not_infinity(self):
        # m-matches exist but no (m+1)-match survives
        x = make_series([0.0, 0.1, 5.0, 0.0, 0.1, -5.0, 0.0, 0.1, 9.0])
        with pytest.raises(NumericalError, match="insufficient matches") as exc_info:
            sample_entropy(x, SampEnParams(m=2, r_factor=0.3, **ABS_R))
        assert exc_info.value.a_count == 0
        assert exc_info.value.b_count > 0

    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 78), m=st.integers(1, 3),
           kind=st.sampled_from(["normal", "integer", "grid128", "tenths"]))
    @example(seed=0, extra=0, m=1, kind="integer")
    @settings(max_examples=80, deadline=None)
    def test_counts_match_bruteforce_oracle(self, seed, extra, m, kind):
        # the tie-heavy kinds put many pair distances exactly at r, which
        # pins the non-strict (<= r) match rule
        rng = np.random.Generator(np.random.PCG64(seed))
        n = m + 2 + extra
        if kind == "normal":
            x = rng.normal(size=n)
            r = 0.2 * float(np.std(x, ddof=1))
        elif kind == "integer":
            x = rng.integers(-3, 4, size=n).astype(float)
            r = float(rng.integers(1, 3))
        elif kind == "grid128":
            x = rng.integers(-256, 257, size=n) / 128
            r = int(rng.integers(1, 65)) / 128
        else:
            x = np.round(rng.normal(size=n), 1)
            r = 0.1
        counts = sampen_counts(Series(x), SampEnParams(m=m, r_factor=r, **ABS_R))
        assert counts == sampen_pairs_direct(x, m, r)
        assert 0 <= counts[0] <= counts[1]

    @given(seed=st.integers(0, 2**32 - 1),
           a=st.floats(-50, 50).filter(lambda v: abs(v) > 1e-3),
           b=st.floats(-100, 100))
    @example(seed=1125, a=1.0, b=0.0)  # A = 0: the counts come from the error
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance_of_counts(self, seed, a, b):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=120)
        assert sampen_counts(Series(a * x + b)) == sampen_counts(Series(x))


class TestPermutationEntropy:
    def test_monotone_series_is_zero(self):
        for n in (3, 5):
            assert permutation_entropy(make_series(range(50)), PermEnParams(n=n)) == 0.0
            assert permutation_entropy(make_series(range(50, 0, -1)), PermEnParams(n=n)) == 0.0

    def test_single_window(self):
        assert permutation_entropy(make_series([3, 1, 2, 5, 4]), PermEnParams(n=5)) == 0.0

    def test_logistic_battery_value(self):
        pe = permutation_entropy(logistic_recipe(3.5))
        assert pe == pytest.approx(0.2896, abs=1e-3)
        # period-4 orbit: exactly 4 patterns, so H = ln 4
        assert pe == pytest.approx(log(4) / log(factorial(5)), abs=1e-3)

    def test_normal_band(self):
        pe = permutation_entropy(generate_iid("normal", 1000, seed=5))
        assert 0.975 <= pe <= 0.995

    def test_too_short(self):
        with pytest.raises(DataError, match="shorter than tuple"):
            permutation_entropy(make_series([1, 2, 3]), PermEnParams(n=5))

    def test_tie_rule_earlier_index_first(self):
        # all-equal windows collapse onto the identity pattern
        assert permutation_entropy(Series([7.0] * 30), PermEnParams(n=3)) == 0.0
        counts = ordinal_pattern_counts(Series([7.0] * 10), 3)
        assert counts[0] == 8 and counts.sum() == 8

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), size=st.integers(10, 120))
    @settings(max_examples=40, deadline=None)
    def test_histogram_matches_oracle_and_sums(self, seed, n, size):
        rng = np.random.Generator(np.random.PCG64(seed))
        # mix in repeated values so the tie rule is exercised
        x = np.round(rng.normal(size=size), 1)
        counts = ordinal_pattern_counts(Series(x), n)
        oracle = ordinal_counts_direct(x, n)
        assert counts.sum() == size - n + 1
        assert sorted(counts[counts > 0].tolist()) == sorted(oracle.values())
        pe = permutation_entropy(Series(x), PermEnParams(n=n))
        assert 0.0 <= pe <= 1.0
        assert pe == pytest.approx(permen_direct(x, n), abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=200)
        before = permutation_entropy(Series(x))
        after = permutation_entropy(Series(np.exp(0.5 * x) + x ** 3))
        assert after == before


class TestMseSweep:
    def test_scale_one_equals_direct(self, uniform_series):
        metrics = build_metrics(AnalysisConfig())
        profile = mse_sweep(uniform_series, [1, 2], metrics)
        for metric in metrics:
            assert profile.results[(1, metric.name)] == metric(uniform_series)

    def test_logistic_table_row_with_partial_blocks(self):
        want = [0.3479, 0.7899, 1.0515, 1.3852, 1.2181, 2.1832]
        profile = mse_sweep(logistic_recipe(3.7), [1, 2, 3, 4, 5, 10],
                            build_metrics(AnalysisConfig(metrics=("sampen",))),
                            partial="mean")
        for got, ref in zip(profile.values("sampen"), want):
            assert got == pytest.approx(ref, abs=1e-3)

    def test_errors_recorded_per_cell(self):
        profile = mse_sweep(Series([1.0] * 100), [1, 2],
                            build_metrics(AnalysisConfig(metrics=("sampen", "permen"))))
        for scale in (1, 2):
            cell = profile.results[(scale, "sampen")]
            assert math.isnan(cell.value)
            assert any("degenerate tolerance" in w for w in cell.warnings)
            permen = profile.results[(scale, "permen")].value
            assert permen == 0.0 and math.copysign(1.0, permen) == 1.0

    def test_empty_scales_rejected(self, uniform_series):
        with pytest.raises(DataError, match="empty scale list"):
            mse_sweep(uniform_series, [], build_metrics(AnalysisConfig()))

    def test_unsorted_scales_rejected(self, uniform_series):
        with pytest.raises(DataError, match="strictly increasing"):
            mse_sweep(uniform_series, [2, 1], build_metrics(AnalysisConfig()))

    def test_per_scale_r_differs_from_fixed_r(self):
        # AR(1) block means lose variance, so recomputed r shrinks with scale
        from tscomplex import arma_simulate, sample_sd
        s = arma_simulate([0.9], [], 1000, seed=4)
        per_scale = mse_sweep(s, [1, 4], build_metrics(AnalysisConfig(metrics=("sampen",))))
        r_abs = 0.2 * sample_sd(s)
        fixed = mse_sweep(s, [1, 4], build_metrics(
            AnalysisConfig(metrics=("sampen",), r_factor=r_abs, r_mode="absolute")))
        assert per_scale.results[(1, "sampen")].value == fixed.results[(1, "sampen")].value
        assert per_scale.results[(4, "sampen")].value != fixed.results[(4, "sampen")].value
