"""Sample entropy, permutation entropy, and the multi-scale sweeps."""
import contextlib
import dataclasses
import math
import multiprocessing
import os
import sys
import threading
import time
from math import comb, factorial, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tscomplex import (
    DataError,
    Metric,
    NumericalError,
    SampEnParams,
    Series,
    add_noise,
    generate_iid,
    logistic_map,
    mse_sweep,
    mse_sweeps,
    ordinal_pattern_counts,
    permutation_entropy,
    sample_entropy,
)
from tscomplex import entropy
from tscomplex.entropy import _lehmer_table
from tscomplex.experiments import logistic_recipe
from tscomplex.metrics import METRIC_NAMES, build_metrics, AnalysisConfig

from conftest import TIE_KINDS, argsort_lehmer_codes, make_series, tie_heavy_values
from oracles import (
    ordinal_counts_direct,
    permen_direct,
    sampen_pairs_direct,
    sampen_pairs_rowwise,
)

ABS_R = dict(r_mode="absolute")


def _normal(n, seed):
    return np.random.Generator(np.random.PCG64(seed)).normal(size=n)


def _periodic(n):
    """Logistic r=3.5 on its period-4 orbit plus noise of 0.05 SD, with
    r = 0.2 SD: many matches per template."""
    x = add_noise(logistic_map(3.5, 0.3, keep=n, total=n + 1000), n, sd_multiplier=0.05).values
    return x, 0.2 * float(np.std(x, ddof=1))


def sampen_counts(series, params=SampEnParams()):
    """(A, B) behind a sample entropy, also when a zero count makes it raise."""
    try:
        res = sample_entropy(series, params)
    except NumericalError as exc:
        return exc.a_count, exc.b_count
    return res.a_count, res.b_count


# series with sparse, dense and clustered matches, many distances equal to r
ORACLE_CASES = [
    # sparse matches; on the 1/128 grid many distances equal r exactly
    pytest.param(_normal(300, 6), 0.2, id="normal"),
    pytest.param(np.round(_normal(300, 7) * 128) / 128, 2 / 128, id="grid128"),
    # tie-free, and every difference a multiple of 1/128: many equal r
    pytest.param(np.random.Generator(np.random.PCG64(10)).permutation(300) / 128, 12 / 128,
                 id="permutation128"),
    # dense matches, with few distinct templates or clustered ones
    pytest.param(np.random.Generator(np.random.PCG64(8)).integers(0, 2, 300).astype(float),
                 0.5, id="binary"),
    pytest.param(*_periodic(300), id="periodic"),
    # multiples of 0.1 in floats: neighbours differ by a little under,
    # exactly or a little over r
    pytest.param(np.random.Generator(np.random.PCG64(23)).integers(-40, 40, 300) * 0.1, 0.1,
                 id="lattice"),
    pytest.param(np.round(_normal(300, 24) - 2, 1), 0.1, id="negative-tied"),
]


class TestSampleEntropy:
    def test_constant_series_all_pairs_match(self):
        res = sample_entropy(Series([5.0] * 100), SampEnParams(m=2, r_factor=0.1, **ABS_R))
        # 98 templates at both lengths -> C(98,2) pairs each
        assert res.a_count == res.b_count == comb(98, 2)
        assert res.value == 0.0

    @pytest.mark.simd
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

    @pytest.mark.parametrize("r_factor", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("r_mode", ["per_input_sd", "absolute"])
    def test_non_finite_r_factor_refused(self, r_factor, r_mode):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            SampEnParams(r_factor=r_factor, r_mode=r_mode)

    @pytest.mark.parametrize("values, params, reason", [
        # the SD, 1.79e308 * sqrt(40/39), passes the largest float: r = 0.2 * inf
        ([1.79e308, -1.79e308] * 20, SampEnParams(), r"r = inf"),
        # the SD, about 2.5e307, is finite, but the first coordinate's range is not
        ([1e308, -1e308, *[0.5, -0.25, 0.75] * 10], SampEnParams(),
         "more than the largest float"),
        # finite tolerances whose product with a finite SD overflows
        ([1e307, -1e307, *[0.5, -0.25, 0.75] * 10], SampEnParams(r_factor=1e3), r"r = inf"),
        # a range of 2e308 is more than the kd-tree can hold
        ([1e308, -1e308, *[0.5, -0.25, 0.75] * 10], SampEnParams(r_factor=1, **ABS_R),
         "more than the largest float"),
    ])
    def test_overflow_is_a_numerical_error(self, values, params, reason):
        with pytest.raises(NumericalError, match=reason):
            sample_entropy(Series(values), params)

    def test_an_sd_that_squares_past_the_largest_float_is_counted(self):
        # the SD, about 1.5e200, is finite although its square is not; on
        # a ramp every length-m match extends
        x = [1e200 * (1 + 0.01 * i) for i in range(50)]
        res = sample_entropy(Series(x))
        assert (res.a_count, res.b_count) == sampen_pairs_direct(x, m=2, r=res.r)
        assert res.value == 0.0

    def test_unit_free_under_powers_of_two(self):
        # a power of two changes no bit of a normal number, so the counts,
        # the value and the scaled tolerance are the same bit for bit
        x = 1.0 + np.random.Generator(np.random.PCG64(14)).uniform(size=100)
        base = sample_entropy(Series(x))
        for k in range(-1000, 1001):
            res = sample_entropy(Series(np.ldexp(x, k)))
            assert res == dataclasses.replace(base, r=math.ldexp(base.r, k))

    def test_extremes_that_share_no_coordinate_are_counted(self):
        # 1.7e308 is only ever a first coordinate and -1.7e308 a last one,
        # so no difference a kd-tree strategy takes overflows
        x = [1.7e308, *[0.5, -0.25, 0.75, 0.5] * 5, -1.7e308]
        want = sampen_pairs_direct(x, m=2, r=0.3)
        res = sample_entropy(Series(x), SampEnParams(r_factor=0.3, **ABS_R))
        assert (res.a_count, res.b_count) == want
        for count in entropy._STRATEGIES.values():
            assert count(np.array(x), 2, 0.3) == want

    def test_tolerance_past_the_largest_value_counts_every_pair(self):
        # the rule's s + r overflows: no warning, and every strategy counts
        # every pair
        x = np.random.Generator(np.random.PCG64(13)).permutation(40) * 2.5e306
        params = SampEnParams(r_factor=1.5e308, **ABS_R)
        assert entropy._strategy(x, 2, params.r_factor) == "extended"
        res = sample_entropy(Series(x), params)
        assert (res.a_count, res.b_count) == (comb(38, 2),) * 2
        for count in entropy._STRATEGIES.values():
            assert count(x, 2, params.r_factor) == (comb(38, 2),) * 2

    def test_range_below_the_largest_float_is_counted(self):
        # the extremes differ by 1.78e308 < 1.797e308: the tree holds them
        x = [8.9e307, -8.9e307, *[0.5, -0.25, 0.75, 0.5] * 5]
        res = sample_entropy(Series(x), SampEnParams(r_factor=0.3, **ABS_R))
        assert (res.a_count, res.b_count) == sampen_pairs_direct(x, m=2, r=0.3)

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

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("x, r", [
        # one and two distinct templates, and the fewest points m=2 allows
        pytest.param(np.full(50, 1.5), 0.1, id="constant"),
        pytest.param(np.random.Generator(np.random.PCG64(3)).integers(0, 2, 80).astype(float),
                     0.5, id="binary"),
        pytest.param(np.array([0.0, 0.25, 0.5, 0.25]), 0.5, id="minimum-length"),
        pytest.param(np.random.Generator(np.random.PCG64(4)).integers(-3, 4, 300).astype(float),
                     1.0, id="integer"),
        pytest.param(np.random.Generator(np.random.PCG64(5)).normal(size=300), 0.2, id="normal"),
    ])
    def test_split_counts_match_bruteforce_oracle(self, cpus, x, r, sweep_cpus):
        # one count per thread of a ``cpus``-thread map, all at once: each
        # builds its own trees, so every count is the oracle's
        sweep_cpus(cpus)
        want = sampen_pairs_direct(x, 2, r)
        got = entropy._map_in_order(lambda _: entropy._pair_counts(x, 2, r), range(cpus))
        assert got == [want] * cpus

    @pytest.mark.simd
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("strategy", [*entropy._STRATEGIES])
    @pytest.mark.parametrize("x, r", ORACLE_CASES)
    def test_every_strategy_matches_bruteforce_oracle(self, x, r, strategy, m):
        # each strategy on every case: the choice between them is tested apart
        assert entropy._STRATEGIES[strategy](x, m, r) == sampen_pairs_direct(x, m, r)

    @pytest.mark.simd
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("block", [2, 8, 64])
    @pytest.mark.parametrize("x, r", [
        *ORACLE_CASES,
        # box differences up to within 2% of the largest float
        pytest.param(np.array([-1.7e308, *_normal(298, 25), 1.7e308]), 0.2, id="extremes"),
        # two clusters exactly r apart: every box gap between them equals r
        pytest.param(np.repeat([0.0, 0.5], 150), 0.5, id="clusters-r-apart"),
        # r spans three steps of 0.1, so two small blocks' joint span is a
        # little under, exactly or a little over r
        pytest.param(np.random.Generator(np.random.PCG64(23)).integers(-40, 40, 300) * 0.1, 0.3,
                     id="lattice-three-steps"),
    ])
    def test_blocked_tree_counts_match_bruteforce_oracle(self, x, r, block, m, monkeypatch):
        # many blocks, so block pairs are pruned, counted whole and counted
        # by their trees, on every side of each rule
        monkeypatch.setattr(entropy, "_BLOCK", block)
        assert entropy._tree_counts(x, m, r) == sampen_pairs_direct(x, m, r)

    @pytest.mark.parametrize("x, r, name", [
        pytest.param(_normal(1000, 11), 0.2, "extended", id="sparse-1k"),
        # 114 pairs per template match in the first coordinate, under 256
        pytest.param(_normal(2048, 9), 0.2, "extended", id="sparse"),
        # 280 match in the first coordinate, 163 in the grid bound
        pytest.param(_normal(2048, 9), 0.5, "extended", id="sparse-by-the-grid-bound"),
        # 597 match in the first coordinate, 511 in the grid bound
        pytest.param(*_periodic(4096), "trees", id="dense"),
        # ties do not matter: 11 pairs per template match in the first coordinate
        pytest.param(np.round(_normal(2048, 12) * 128) / 128, 2 / 128, "extended",
                     id="quantized"),
    ])
    def test_pairs_are_listed_only_when_matches_are_sparse(self, x, r, name):
        assert entropy._strategy(x, 2, r) == name
        assert entropy._pair_counts(x, 2, r) == sampen_pairs_rowwise(x, 2, r)

    @pytest.mark.simd
    @pytest.mark.parametrize("x, r", [
        pytest.param(_normal(300, 18), 0.2, id="normal"),
        # lattice values k*r: each lies just below a cell edge, and the
        # differences of neighbours round to r, a little under or over it
        pytest.param(np.random.Generator(np.random.PCG64(19)).integers(-40, 40, 300) * 0.1, 0.1,
                     id="lattice"),
        pytest.param(np.round(_normal(300, 20) - 2, 1), 0.1, id="negative-tied"),
        pytest.param(np.full(300, -2.5), 0.1, id="constant"),
        pytest.param(np.round(_normal(300, 7) * 128) / 128, 2 / 128, id="grid128"),
        pytest.param(np.random.Generator(np.random.PCG64(10)).permutation(300) / 128, 12 / 128,
                     id="permutation128"),
        pytest.param(np.random.Generator(np.random.PCG64(8)).integers(0, 2, 300).astype(float),
                     0.5, id="binary"),
        pytest.param(*_periodic(300), id="periodic"),
        # the quotients overflow: every pair is the bound
        pytest.param(np.array([-1.7e308, *_normal(298, 25), 1.7e308]), 0.2, id="extremes"),
    ])
    def test_grid_bound_is_at_least_b(self, x, r):
        assert entropy._grid_bound(x, x.size - 2, r) >= sampen_pairs_direct(x, 2, r)[1]

    def test_range_past_two_to_the_thirty_tolerances_gets_no_grid_bound(self):
        # every pair matches in the first coordinate, but one value lies
        # 2^31 tolerances away: the cell indices could not be trusted
        x = np.append(_normal(599, 21) % 1.0, 2.0 ** 31)
        nt = x.size - 2
        assert entropy._grid_bound(x, nt, 1.0) == nt * (nt - 1) // 2
        assert entropy._strategy(x, 2, 1.0) == "trees"
        assert entropy._pair_counts(x, 2, 1.0) == sampen_pairs_rowwise(x, 2, 1.0)

    @pytest.mark.parametrize("values, r", [
        # -0.0 and 0.0 are one value, of one rank
        pytest.param([0.0, -0.0, 1.0, 0.5], 0.25, id="signed-zeros"),
        # 0.9 - 0.2 rounds to 0.7, so they match, although 0.2 + 0.7 < 0.9
        pytest.param([0.2, 0.9, 1.6], 0.7, id="gap-equal-to-r"),
        # 0.4 - 0.3 rounds above 0.1, so they do not, although 0.3 + 0.1 == 0.4
        pytest.param([0.3, 0.4, 0.5], 0.1, id="gap-rounding-above-r"),
    ])
    def test_grid_matches_by_the_rounded_difference(self, values, r):
        x = np.random.Generator(np.random.PCG64(16)).choice(values, 200)
        assert entropy._strategy(x, 2, r) == "grid"
        assert entropy._pair_counts(x, 2, r) == sampen_pairs_direct(x, 2, r)

    def test_grid_ranks_extremes_whose_difference_overflows(self):
        # the rank search compares 1.7e308 with -1.7e308: the difference
        # overflows to inf, which does not match, and warns of nothing
        x = np.array([1.7e308, *[0.5] * 20, -1.7e308])
        assert entropy._strategy(x, 2, 0.3) == "grid"
        assert entropy._pair_counts(x, 2, 0.3) == sampen_pairs_direct(x, 2, 0.3)

    def test_long_templates_on_few_values_stay_off_the_grid(self):
        # (2 + 1)^21 cells, and 2^21 corners per occupied cell, pass the
        # bound at once
        x = np.random.Generator(np.random.PCG64(15)).integers(0, 2, 300).astype(float)
        assert entropy._strategy(x, 20, 0.5) != "grid"
        assert entropy._pair_counts(x, 20, 0.5) == sampen_pairs_rowwise(x, 20, 0.5)

    def test_long_templates_on_four_values_take_the_grid(self):
        # (4 + 1)^7 cells against 256 per template: the rule counts the
        # values the series holds, not the first coordinate's plus m
        x = np.random.Generator(np.random.PCG64(22)).integers(0, 4, 16384).astype(float)
        assert entropy._strategy(x, 6, 0.5) == "grid"

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
            assert permutation_entropy(make_series(range(50)), n) == 0.0
            assert permutation_entropy(make_series(range(50, 0, -1)), n) == 0.0

    def test_single_window(self):
        assert permutation_entropy(make_series([3, 1, 2, 5, 4]), 5) == 0.0

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
            permutation_entropy(make_series([1, 2, 3]), 5)

    def test_tie_rule_earlier_index_first(self):
        # all-equal windows collapse onto the identity pattern
        assert permutation_entropy(Series([7.0] * 30), 3) == 0.0
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
        pe = permutation_entropy(Series(x), n)
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


class TestOrdinalPatternCodes:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_table_is_a_permutation_of_the_codes(self, n):
        table = _lehmer_table(n)
        assert np.array_equal(np.sort(table), np.arange(factorial(n)))


class TestOrdinalPatternCounts:
    """The histogram read off the lagged comparisons, per pattern code."""

    @pytest.mark.simd
    @pytest.mark.parametrize("kind", TIE_KINDS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_counts_per_code_match_the_argsort_definition(self, n, kind):
        # N = n is a single window
        for seed, size in enumerate((n, n + 1, 2 * n - 1, 3 * n + 2, 401)):
            x = tie_heavy_values(seed, kind, size, n)
            expected = np.bincount(argsort_lehmer_codes(sliding_window_view(x, n)),
                                   minlength=factorial(n))
            counts = ordinal_pattern_counts(Series(x), n)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, expected), (size, seed)


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
        with pytest.raises(ValueError, match="^empty scale list$") as excinfo:
            mse_sweep(uniform_series, [], build_metrics(AnalysisConfig()))
        assert type(excinfo.value) is ValueError

    def test_unsorted_scales_rejected(self, uniform_series):
        with pytest.raises(ValueError, match="^scales must be strictly increasing$") as excinfo:
            mse_sweep(uniform_series, [2, 1], build_metrics(AnalysisConfig()))
        assert type(excinfo.value) is ValueError

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


def cells(profile):
    """A profile's cells as text, so that NaN cells compare equal."""
    return {key: repr(result) for key, result in profile.results.items()}


@pytest.fixture
def sweep_cpus(monkeypatch):
    """Let sweeps see ``cpus`` CPUs in the process's affinity set."""
    def with_cpus(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)

    return with_cpus


def _meet_in_two_threads(series):
    # each series' only cell waits for the other's: one thread alone would
    # break the barrier at its timeout
    barrier = threading.Barrier(2, timeout=10)
    mse_sweeps([series, series], [1], [Metric("meet", lambda s: barrier.wait())])


def _sweep_in_child(series, metrics, want):
    _meet_in_two_threads(series)
    if cells(mse_sweep(series, [1, 2], metrics)) != want:
        raise SystemExit(1)


class TestMseSweeps:
    SERIES = [generate_iid("uniform", 600, seed=1), Series([1.0] * 300, "flat"),
              logistic_recipe(3.7), generate_iid("normal", 450, seed=2)]
    METRICS = build_metrics(AnalysisConfig())

    def test_equals_one_sweep_per_series(self):
        got = mse_sweeps(self.SERIES, [1, 2, 5], self.METRICS, partial="mean")
        want = [mse_sweep(s, [1, 2, 5], self.METRICS, partial="mean") for s in self.SERIES]
        assert [cells(p) for p in got] == [cells(p) for p in want]
        assert all(p.scales == (1, 2, 5) and p.metrics == METRIC_NAMES for p in got)
        flat = got[1].results
        assert all(math.isnan(flat[(s, "sampen")].value) for s in (1, 2, 5))
        assert all(math.isfinite(got[i].results[(1, "sampen")].value) for i in (0, 2, 3))

    def test_other_errors_propagate(self):
        def boom(series):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            mse_sweeps(self.SERIES, [1, 2], [*self.METRICS, Metric("boom", boom)])

    def test_short_series_refused_before_any_cell(self):
        seen = []
        counting = Metric("count", lambda s: seen.append(len(s)))
        series = [*self.SERIES[:2], Series([1.0, 2.0, 3.0], "short"), *self.SERIES[2:]]
        with pytest.raises(DataError, match="invalid scale 5 for series of length 3"):
            mse_sweeps(series, [1, 5], [counting])
        assert seen == []

    def test_metric_named_twice_refused_before_any_cell(self):
        seen = []
        counting = Metric("count", lambda s: seen.append(len(s)))
        with pytest.raises(ValueError, match="^metric named more than once: count$") as excinfo:
            mse_sweeps(self.SERIES, [1, 2], [counting, Metric("other", len), Metric("count", len)])
        assert type(excinfo.value) is ValueError and seen == []

    def test_unknown_partial_mode_refused_before_any_cell(self, monkeypatch):
        grained = []
        monkeypatch.setattr(entropy, "coarse_grain", lambda *a, **k: grained.append(a))
        with pytest.raises(ValueError, match="partial must be 'drop' or 'mean', got 'Mean'"):
            mse_sweeps(self.SERIES, [1, 2], self.METRICS, partial="Mean")
        assert grained == []

    def test_no_series_starts_after_an_exception(self, sweep_cpus):
        sweep_cpus(1)
        seen = []

        def boom(series):
            seen.append(len(series))
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            mse_sweeps(self.SERIES, [1, 2], [Metric("boom", boom)])
        assert seen == [600]

    def test_no_cell_starts_after_an_exception_on_two_workers(self, sweep_cpus):
        sweep_cpus(2)
        started = []
        second = threading.Event()

        def first_raises(series):
            # cell 0 raises once cell 1 has started; cell 1 ends 0.2 s later
            started.append(len(series))
            if len(series) == 600:
                assert second.wait(10)
                raise RuntimeError("boom")
            second.set()
            time.sleep(0.2)

        with pytest.raises(RuntimeError, match="boom"):
            mse_sweeps(self.SERIES, [1], [Metric("first_raises", first_raises)])
        assert sorted(started) == [300, 600]

    def test_one_cell_runs_in_the_calling_thread(self, sweep_cpus):
        sweep_cpus(2)
        threads = set()
        where = Metric("where", lambda s: threads.add(threading.get_ident()))
        mse_sweep(self.SERIES[0], [1], [where])
        mse_sweeps(self.SERIES[:1], [1], [where])
        assert threads == {threading.get_ident()}

    def test_series_run_in_parallel(self, sweep_cpus):
        sweep_cpus(2)
        _meet_in_two_threads(self.SERIES[0])

    def test_scales_of_one_series_run_in_parallel(self, sweep_cpus):
        sweep_cpus(2)
        # each scale's only cell waits for the other's: one thread alone
        # would break the barrier at its timeout
        barrier = threading.Barrier(2, timeout=10)
        mse_sweep(self.SERIES[0], [1, 2], [Metric("meet", lambda s: barrier.wait())])

    def test_cpus_counts_the_affinity_set(self, sweep_cpus):
        sweep_cpus(1)
        assert entropy._cpus() == 1
        sweep_cpus(3)
        assert entropy._cpus() == 3

    def test_without_affinity_cpus_counts_every_cpu(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert entropy._cpus() == 3

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "raises"])
    def test_no_thread_outlives_a_sweep(self, sweep_cpus, fail):
        sweep_cpus(4)
        before = threading.active_count()
        metrics = [*self.METRICS, *([Metric("boom", lambda s: 1 / 0)] if fail else [])]
        with pytest.raises(ZeroDivisionError) if fail else contextlib.nullcontext():
            mse_sweeps(self.SERIES, [1, 2, 3], metrics)
        assert threading.active_count() == before

    def test_a_metric_may_call_a_sweep(self, sweep_cpus):
        # each outer cell sweeps its coarse-grained series again; the inner
        # sweeps start helpers of their own
        sweep_cpus(2)
        inner = build_metrics(AnalysisConfig(metrics=("sampen", "permen")))
        want = [cells(p) for p in mse_sweeps(self.SERIES, [1, 2], inner)]
        nested = Metric("nested", lambda s: cells(mse_sweep(s, [1, 2], inner)))
        got = [p.results[(1, "nested")] for p in mse_sweeps(self.SERIES, [1], [nested])]
        assert got == want

    def test_cells_do_not_depend_on_the_worker_count(self, sweep_cpus):
        # more workers than cores, switching threads often: a lost or
        # misplaced cell would change the profiles
        sweep_cpus(1)
        want = [cells(p) for p in mse_sweeps(self.SERIES, [1, 2, 3], self.METRICS)]
        sweep_cpus(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [cells(p) for p in mse_sweeps(self.SERIES, [1, 2, 3], self.METRICS)]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_split_cells_do_not_depend_on_the_worker_count(self, sweep_cpus):
        # one series' scales split over the workers, and two series' cells
        batches = [self.SERIES[:1], self.SERIES[2:]]
        sweep_cpus(1)
        want = [[cells(p) for p in mse_sweeps(b, [1, 2, 3], self.METRICS)] for b in batches]
        sweep_cpus(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [[cells(p) for p in mse_sweeps(b, [1, 2, 3], self.METRICS)] for b in batches]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_ordinal_and_runs_sweep_runs_in_two_threads(self, sweep_cpus):
        sweep_cpus(2)
        # each series' only cell waits for the other's before its permen:
        # one thread alone would break the barrier at its timeout
        barrier = threading.Barrier(2, timeout=10)
        series = [self.SERIES[0], self.SERIES[3]]
        metrics = build_metrics(AnalysisConfig(metrics=("permen", "permtest", "runstest")))
        first, *rest = metrics

        def meet(s):
            barrier.wait()
            return first(s)

        got = mse_sweeps(series, [1], [dataclasses.replace(first, evaluate=meet), *rest])
        assert [cells(p) for p in got] == [cells(p) for p in mse_sweeps(series, [1], metrics)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_child_forked_after_a_sweep_sweeps_two_series_at_once(self, uniform_series,
                                                                   sweep_cpus):
        # a child inherits no thread; its sweeps start their own helpers
        sweep_cpus(2)
        _meet_in_two_threads(uniform_series)
        metrics = build_metrics(AnalysisConfig(metrics=("permen", "runstest")))
        want = cells(mse_sweep(uniform_series, [1, 2], metrics))
        child = multiprocessing.get_context("fork").Process(
            target=_sweep_in_child, args=(uniform_series, metrics, want))
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung, "the forked child's sweep did not return"
        assert child.exitcode == 0
