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

    def test_degenerate_variance(self):
        with pytest.raises(NumericalError, match="degenerate variance"):
            welch_t_test([2.0, 2.0, 2.0], [5.0, 5.0])

    def test_group_size(self):
        with pytest.raises(DataError):
            welch_t_test([1.0], [2.0, 3.0])
