"""Permutation test, runs tests, and the tail-probability machinery."""
from math import factorial, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscomplex import (
    DataError,
    NumericalError,
    Series,
    chi_square_sf,
    generate_iid,
    normal_sf,
    permutation_test,
    runs_test,
    welch_t_test,
)
from tscomplex import randomness
from tscomplex.experiments import logistic_recipe

from conftest import TIE_KINDS, argsort_lehmer_codes, make_series, tie_heavy_values
from oracles import chi2_sf_quad, normal_sf_quad, runs_direct, welch_direct


class TestPermutationTest:
    @pytest.mark.parametrize("g,t", [(10, 3), (100, 3), (200, 3), (10, 5), (100, 5), (200, 5)])
    def test_single_pattern_closed_form(self, g, t):
        series = make_series(range(g * t))
        res = permutation_test(series, t)
        assert res.chi_square == g * (factorial(t) - 1)
        assert res.df == factorial(t) - 1
        assert res.group_count == g

    def test_increasing_thousand_points(self):
        res = permutation_test(make_series(range(1000)), 5)
        assert res.chi_square == 200 * 119 == 23800
        assert res.p_value < 1e-300

    def test_counts_sum_to_group_count(self, uniform_series):
        res = permutation_test(uniform_series, 5)
        assert sum(res.counts) == res.group_count == 200
        assert len(res.counts) == 120

    def test_logistic_battery_value(self):
        res = permutation_test(logistic_recipe(3.5), 5)
        assert res.chi_square == pytest.approx(5799.652, abs=0.5)
        assert res.p_value < 1e-12

    def test_low_expected_warning_fires_at_battery_size(self):
        # N=1000, t=5: E = 200/120 < 5
        assert permutation_test(make_series(range(1000)), 5).low_expected_warning
        assert not permutation_test(make_series(range(1000)), 3).low_expected_warning

    def test_remainder_discarded(self):
        base = list(range(25))
        res_exact = permutation_test(make_series(base), 5)
        res_extra = permutation_test(make_series(base + [0.5, 0.2]), 5)
        assert res_exact.chi_square == res_extra.chi_square
        assert res_extra.group_count == 5

    def test_no_complete_group(self):
        with pytest.raises(DataError, match="no complete group"):
            permutation_test(make_series([1, 2, 3]), 5)

    def test_t_bounds(self):
        with pytest.raises(ValueError):
            permutation_test(make_series(range(100)), 1)
        with pytest.raises(ValueError):
            permutation_test(make_series(range(100)), 9)

    @pytest.mark.simd
    @pytest.mark.parametrize("kind", TIE_KINDS)
    @pytest.mark.parametrize("t", range(2, 9))
    def test_counts_per_code_match_the_argsort_definition(self, t, kind):
        # N = t is a single group; the others leave remainders 0 to t-1
        for seed, size in enumerate((t, t + 1, 2 * t - 1, 5 * t, 5 * t + t // 2, 403)):
            x = tie_heavy_values(seed, kind, size, t)
            g = size // t
            expected = np.bincount(argsort_lehmer_codes(x[:g * t].reshape(g, t)),
                                   minlength=factorial(t))
            res = permutation_test(Series(x), t)
            assert res.group_count == g
            assert res.counts == tuple(expected.tolist()), (size, seed)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=300)
        before = permutation_test(Series(x), 4)
        after = permutation_test(Series(np.tanh(x) * 10 + x), 4)
        assert after.chi_square == before.chi_square


class TestRunsTest:
    def test_alternating_derived_example(self):
        # cross-checked against the independent enumeration in oracles.py
        series = make_series([1, 2] * 10)
        res = runs_test(series)
        runs, mu, var = runs_direct(series.values, "above_below_median")
        assert (res.runs, res.n_effective) == (20, 20)
        assert (runs, mu, var) == (20, 11.0, 36000.0 / 7600.0)
        assert res.z == pytest.approx((20 - 11.0) / sqrt(36000.0 / 7600.0))

    def test_constant_series_degenerate(self):
        with pytest.raises(NumericalError, match="degenerate series"):
            runs_test(Series([3.0] * 40))

    def test_constant_series_degenerate_up_down(self):
        with pytest.raises(NumericalError, match=r"degenerate series \(no nonzero differences\)"):
            runs_test(Series([3.0] * 40), "up_down")

    def test_logistic_battery_value_median_variant(self):
        res = runs_test(logistic_recipe(3.5), "above_below_median")
        assert res.z == pytest.approx(31.5753, abs=0.05)
        assert res.p_value < 1e-200

    def test_sign_convention(self):
        blocks = make_series([1.0] * 50 + [2.0] * 50)
        assert runs_test(blocks).z < 0
        alternating = make_series([1.0, 2.0] * 50)
        assert runs_test(alternating).z > 0
        # two long monotone ramps: few up/down runs; sawtooth: many
        ramps = make_series(list(range(50)) + list(range(50, 0, -1)))
        assert runs_test(ramps, "up_down").z < 0
        assert runs_test(make_series([1, 2] * 30), "up_down").z > 0

    def test_median_ties_dropped(self):
        # median of [1,1,2,3] is 1.5; of [1,2,2,3] it's 2 and both 2s drop
        res = runs_test(make_series([1, 2, 2, 3] * 10))
        assert res.n_effective == 20

    def test_up_down_zero_diffs_dropped(self):
        res = runs_test(make_series([1, 1, 2, 2, 3, 3, 2, 2, 1, 1] * 6), "up_down")
        runs, mu, var = runs_direct([1, 1, 2, 2, 3, 3, 2, 2, 1, 1] * 6, "up_down")
        assert res.runs == runs
        assert res.z == pytest.approx((runs - mu) / sqrt(var))

    def test_overflowing_median_and_differences_keep_their_signs(self):
        # the two middle samples of each series sum past the largest float,
        # and neighbours differ by more than it; the signs, so the z, are
        # those of the same series halved
        rng = np.random.Generator(np.random.PCG64(5))
        x = np.concatenate([rng.uniform(1.0, 1.7, 30) * 1e308, -rng.uniform(1, 9, 10)])
        rng.shuffle(x)
        for variant in ("above_below_median", "up_down"):
            assert runs_test(Series(x), variant) == runs_test(Series(x * 0.5), variant)

    @pytest.mark.parametrize("x", [
        pytest.param(np.random.Generator(np.random.PCG64(30)).normal(size=101), id="odd"),
        pytest.param(np.random.Generator(np.random.PCG64(31)).normal(size=100), id="even"),
        pytest.param(np.random.Generator(np.random.PCG64(32)).integers(0, 3, 101).astype(float),
                     id="ties-odd"),
        pytest.param(np.random.Generator(np.random.PCG64(33)).integers(0, 3, 100).astype(float),
                     id="ties-even"),
        pytest.param(np.array([3e-310, -1e-310, 2e-310, 5e-310]), id="subnormal"),
        pytest.param(np.random.Generator(np.random.PCG64(34)).choice([-0.0, 0.0, -1.0, 1.0], 100),
                     id="signed-zeros"),
    ])
    def test_one_partition_median_is_numpy_median(self, x):
        assert randomness._median(x) == float(np.median(x))
        for variant in ("above_below_median", "up_down"):
            res = runs_test(Series(x), variant)
            runs, mu, var = runs_direct(x, variant)
            assert res.runs == runs
            assert res.z == pytest.approx((runs - mu) / sqrt(var), rel=1e-12)

    def test_overflowing_median_falls_back_to_the_halved_series(self):
        # the two middle samples sum past the largest float: inf, as in
        # np.median, and the halved series gives the median without overflow
        x = np.array([1.7e308, -1.0, 1.6e308, 1.5e308, 2.0, 1.65e308])
        with np.errstate(over="ignore"):
            assert randomness._median(x) == float(np.median(x)) == np.inf
        assert 2.0 * randomness._median(x * 0.5) == 2.0 * float(np.median(x * 0.5)) == 1.55e308

    def test_up_down_too_small(self):
        with pytest.raises(NumericalError, match="sample too small"):
            runs_test(make_series([1, 1, 2]), "up_down")

    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(
        ["above_below_median", "up_down"]))
    @settings(max_examples=30, deadline=None)
    def test_matches_direct_enumeration(self, seed, variant):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=150)
        res = runs_test(Series(x), variant)
        runs, mu, var = runs_direct(x, variant)
        assert res.runs == runs
        assert res.z == pytest.approx((runs - mu) / sqrt(var), rel=1e-12)
        assert 0.0 <= res.p_value <= 1.0


class TestChiSquareSf:
    @pytest.mark.parametrize("df", [1, 2, 5, 119])
    def test_at_zero(self, df):
        assert chi_square_sf(0.0, df) == 1.0

    def test_classic_quantile(self):
        assert chi_square_sf(3.841, 1) == pytest.approx(0.0500, abs=5e-4)
        assert chi_square_sf(3.841, 1) == pytest.approx(chi2_sf_quad(3.841, 1), abs=1e-10)

    def test_battery_p_value(self):
        assert chi_square_sf(108.3935, 119) == pytest.approx(0.747, abs=5e-3)

    @pytest.mark.parametrize("x,df", [(1.3, 1), (7.2, 4), (110.0, 119), (260.0, 119),
                                      (55.5, 60), (400.0, 200)])
    def test_against_quadrature(self, x, df):
        assert chi_square_sf(x, df) == pytest.approx(chi2_sf_quad(x, df), abs=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chi_square_sf(-0.1, 3)

    def test_rejects_df_below_one(self):
        with pytest.raises(ValueError, match="degrees of freedom must be >= 1, got 0"):
            chi_square_sf(1.0, 0)

    @given(st.lists(st.floats(0, 500, allow_nan=False), min_size=2, max_size=8),
           st.integers(1, 150))
    @settings(max_examples=40, deadline=None)
    def test_monotone_non_increasing(self, xs, df):
        xs = sorted(xs)
        ps = [chi_square_sf(x, df) for x in xs]
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert all(p1 >= p2 for p1, p2 in zip(ps, ps[1:]))


class TestNormalSf:
    def test_symmetry_at_zero(self):
        assert normal_sf(0.0) == 0.5

    def test_classic_quantile(self):
        assert normal_sf(1.959964) == pytest.approx(0.025, abs=1e-6)
        assert normal_sf(1.959964) == pytest.approx(normal_sf_quad(1.959964), abs=1e-12)

    @pytest.mark.parametrize("z", [-8.0, -2.5, -0.3, 0.7, 3.3, 9.5])
    def test_against_quadrature(self, z):
        assert normal_sf(z) == pytest.approx(normal_sf_quad(z), abs=1e-12)

    @given(st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_identity(self, z):
        assert normal_sf(z) + normal_sf(-z) == pytest.approx(1.0, abs=1e-14)


class TestWelch:
    def test_identical_samples(self):
        res = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t_statistic == 0.0
        assert res.p_value == 1.0

    def test_separated_groups(self):
        res = welch_t_test([0, 0, 1, 1], [10, 10, 11, 11])
        assert res.p_value < 0.001

    def test_seeded_draws_match_quadrature_oracle(self):
        a = generate_iid("normal", 50, seed=21).values
        b = generate_iid("normal", 50, seed=22).values + 0.1
        res = welch_t_test(a, b)
        t_o, df_o, p_o = welch_direct(a, b)
        assert res.t_statistic == pytest.approx(t_o, rel=1e-10)
        assert res.df == pytest.approx(df_o, rel=1e-10)
        assert res.p_value == pytest.approx(p_o, abs=1e-6)

    @pytest.mark.parametrize("a, b, t, df, p", [
        # each variance underflows to 0 unless the groups are rescaled
        ([1e-170, 2e-170], [1e-170, 3e-170], -0.4472, 1.4706, 0.7117),
        # the squared deviations overflow unless the groups are rescaled
        ([1e200, -1e200, 3e199], [1.0, 2.0], 0.1707, 2.0, 0.8802),
    ], ids=["underflow", "overflow"])
    def test_extreme_magnitudes(self, a, b, t, df, p):
        res = welch_t_test(a, b)  # a numpy warning would fail the test
        assert (res.t_statistic, res.df, res.p_value) == pytest.approx((t, df, p), abs=1e-4)
        assert (res.mean_a, res.mean_b) == pytest.approx((np.mean(a), np.mean(b)), rel=1e-12)

    @pytest.mark.parametrize("k", [600, -600])
    def test_power_of_two_unit_changes_no_bit(self, k):
        a = generate_iid("normal", 20, seed=23).values
        b = generate_iid("normal", 30, seed=24).values + 0.5
        res = welch_t_test(a, b)
        scaled = welch_t_test(np.ldexp(a, k), np.ldexp(b, k))
        assert (scaled.t_statistic, scaled.df, scaled.p_value) == (
            res.t_statistic, res.df, res.p_value)
        assert (scaled.mean_a, scaled.mean_b) == (np.ldexp(res.mean_a, k),
                                                  np.ldexp(res.mean_b, k))

    def test_degenerate_variance(self):
        with pytest.raises(NumericalError, match="degenerate variance"):
            welch_t_test([2.0, 2.0, 2.0], [5.0, 5.0])

    def test_group_size(self):
        with pytest.raises(DataError):
            welch_t_test([1.0], [2.0, 3.0])
