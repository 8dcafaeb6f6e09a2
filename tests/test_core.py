"""Core types, the sample SD, coarse-graining, and the comparison-chart scale."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscomplex import (
    DataError,
    ExperimentReport,
    ReportRow,
    Series,
    coarse_grain,
    generate_iid,
    sample_sd,
)
from tscomplex.plots import _comparison_scale

from conftest import make_series


class TestSeries:
    def test_rejects_empty(self):
        with pytest.raises(DataError, match="empty input"):
            Series([])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DataError, match="non-finite"):
            Series([1.0, float("nan"), 2.0])
        with pytest.raises(DataError, match="non-finite"):
            Series([1.0, float("inf")])

    def test_values_are_read_only(self):
        s = make_series([1, 2, 3])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_length_one_allowed(self):
        assert len(Series([4.2])) == 1


class TestSummary:
    def test_symmetric_three_points(self):
        # divisor n-1: sqrt((1 + 0 + 1) / 2)
        assert sample_sd(make_series([1, 2, 3])) == 1.0

    def test_constant(self):
        assert sample_sd(make_series([5, 5, 5, 5])) == 0.0
        assert sample_sd(make_series([5])) == 0.0

    @pytest.mark.parametrize("values, sd", [
        ([1e308, -1e308, 0.5], math.inf),
        ([1e200, 2e200, 3e200], math.inf),  # the true SD, 1e200, squares past the largest float
    ])
    def test_overflow_gives_inf_without_a_warning(self, values, sd):
        # the test settings make a numpy RuntimeWarning an error
        assert sample_sd(Series(values)) == sd

    def test_uniform_sd_band(self):
        # theoretical sd of Uniform(0,1) is 1/sqrt(12) ~ 0.2887
        s = generate_iid("uniform", 1000, seed=7)
        assert 0.26 <= sample_sd(s) <= 0.32


class TestCoarseGrain:
    def test_block_means(self):
        out = coarse_grain(make_series([1, 2, 3, 4, 5, 6]), 2)
        assert out.values.tolist() == [1.5, 3.5, 5.5]

    def test_scale_one_is_identity(self):
        s = make_series([3.0, 1.0, 4.0])
        out = coarse_grain(s, 1)
        assert out.values.tolist() == s.values.tolist()

    def test_remainder_dropped(self):
        s = generate_iid("uniform", 1000, seed=1)
        assert len(coarse_grain(s, 3)) == 333

    def test_remainder_mean_mode(self):
        s = make_series([1, 2, 3, 4, 5])
        out = coarse_grain(s, 2, partial="mean")
        assert out.values.tolist() == [1.5, 3.5, 5.0]
        assert len(coarse_grain(s, 2)) == 2

    @pytest.mark.parametrize("scale", [0, -1, 7])
    def test_invalid_scale(self, scale):
        with pytest.raises(DataError, match="invalid scale"):
            coarse_grain(make_series([1, 2, 3, 4, 5, 6]), scale)

    @staticmethod
    def _order_sensitive_series():
        """Series whose block sums change with the order of the adds, each
        starting with 1000 samples of -0.0."""
        rng = np.random.Generator(np.random.PCG64(7))
        wide = rng.choice([-1.0, 1.0], 1500) * 10.0 ** rng.uniform(-300, 300, 1500)
        wide[rng.random(1500) < 0.05] = -0.0
        wide[rng.random(1500) < 0.05] = 0.0
        cancelling = rng.choice([1e16, -1e16, 1.0, 3.0, 0.1, -0.0], 1500)
        return [np.concatenate([np.full(1000, -0.0), tail])
                for tail in (wide, cancelling, rng.normal(size=1500))]

    @pytest.mark.parametrize("partial", ["drop", "mean"])
    def test_block_means_are_bit_identical_to_numpy_mean(self, partial):
        # the -0.0 prefix makes every scale up to 1000 average a block of
        # -0.0, whose mean is +0.0
        for x in self._order_sensitive_series():
            n = x.size
            assert coarse_grain(Series(x), 1, partial=partial).values.tobytes() == x.tobytes()
            for scale in [*range(2, 141), 200, 256, 1000]:
                nb = n // scale
                expected = x[:nb * scale].reshape(nb, scale).mean(axis=1)
                if partial == "mean" and nb * scale < n:
                    expected = np.append(expected, x[nb * scale:].mean())
                out = coarse_grain(Series(x), scale, partial=partial).values
                assert out.tobytes() == expected.tobytes(), scale
                assert not np.signbit(out[:1000 // scale]).any()

    @pytest.mark.parametrize("partial", ["drop", "mean"])
    def test_overflowing_block_sums_give_the_unbounded_means(self, partial):
        # a block sum past the largest float is redone on halved samples;
        # scaling by a power of two is exact, so the means are those of the
        # samples / 16, times 16, whose sums never overflow
        rng = np.random.Generator(np.random.PCG64(3))
        x = 1e308 * rng.uniform(0.5, 1.7, 157) * rng.choice([1.0, 1.0, -1.0], 157)
        for scale in [2, 3, 5, 7, 8, 9, 16, 40]:
            out = coarse_grain(Series(x), scale, partial=partial).values
            expected = coarse_grain(Series(x / 16), scale, partial=partial).values * 16
            assert out.tobytes() == expected.tobytes(), scale
        assert coarse_grain(Series([1e308] * 4), 2).values.tolist() == [1e308, 1e308]

    @given(n=st.integers(1, 400), scale=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_length_and_mean_preservation(self, n, scale, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        s = Series(rng.normal(size=n))
        if scale > n:
            with pytest.raises(DataError):
                coarse_grain(s, scale)
            return
        out = coarse_grain(s, scale)
        nblocks = n // scale
        assert len(out) == nblocks
        lhs = out.values.sum() * scale
        rhs = s.values[: nblocks * scale].sum()
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestRescale:
    """The comparison scale of ``plot --kind grouped_bars --rescale``."""

    @staticmethod
    def scale(metric, values):
        report = ExperimentReport()
        for i, v in enumerate(values):
            report.add(ReportRow(f"s{i}", 1, metric, float(v)))
        return _comparison_scale(report)

    def test_minmax(self):
        # the entropies, and a metric the table does not know (a report file
        # may name any), are min-max scaled only
        for metric in ("sampen", "permen", "chi2x"):
            assert self.scale(metric, [0, 5, 10]) == [0.0, 0.5, 1.0]

    def test_inv_ln(self):
        # 1/ln gives 1, 1/2, 1/4 before the min-max step
        assert self.scale("permtest", [math.e, math.e ** 2, math.e ** 4]) == [
            1.0, pytest.approx(1 / 3), 0.0]

    def test_inv_abs(self):
        # 1/|z| gives 1/2, 1/4, 1 before the min-max step
        assert self.scale("runstest", [-2, 4, -1]) == [pytest.approx(1 / 3), 0.0, 1.0]

    def test_equal_scores_map_to_half(self):
        assert self.scale("sampen", [3, 3, 3]) == [0.5, 0.5, 0.5]

    def test_inv_ln_rejects_scores_not_above_one(self):
        with pytest.raises(DataError, match="0.5"):
            self.scale("permtest", [2.0, 0.5])

    def test_inv_abs_rejects_zero(self):
        with pytest.raises(DataError, match="nonzero"):
            self.scale("runstest", [1.0, 0.0])

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40).filter(
        lambda v: len(set(v)) >= 2))
    @settings(max_examples=60, deadline=None)
    def test_minmax_range_and_endpoints(self, values):
        out = self.scale("sampen", values)
        assert all(0.0 <= v <= 1.0 for v in out)
        assert 0.0 in out and 1.0 in out

    def test_pipeline(self):
        report = ExperimentReport()
        report.add(ReportRow("a", 1, "sampen", 1.0))
        report.add(ReportRow("b", 1, "sampen", 3.0))
        report.add(ReportRow("a", 1, "permtest", math.e ** 2))
        report.add(ReportRow("b", 1, "permtest", math.e ** 4))
        report.add(ReportRow("a", 1, "runstest", -2.0))
        report.add(ReportRow("b", 1, "runstest", 4.0))
        # sampen: minmax of (1,3); permtest: minmax of 1/ln -> (0.5, 0.25);
        # runstest: minmax of 1/|z| -> (0.5, 0.25)
        assert _comparison_scale(report) == [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("metric,values,expected", [
        ("sampen", [math.nan, 1.0, 3.0], [math.nan, 0.0, 1.0]),
        ("runstest", [2.0, -2.0, math.nan], [0.5, 0.5, math.nan]),
        ("permtest", [math.nan, 50.0], [math.nan, 0.5]),
        ("sampen", [math.nan, math.nan], [math.nan, math.nan]),
    ])
    def test_failed_cells_stay_out_of_the_range(self, metric, values, expected):
        np.testing.assert_array_equal(self.scale(metric, values), expected)
