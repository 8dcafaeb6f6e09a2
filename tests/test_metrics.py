"""Metric wrappers and the analysis configuration."""
import numpy as np
import pytest

from tscomplex import PermEnParams, SampEnParams, coarse_grain, generate_iid, mse_sweep
from tscomplex.metrics import AnalysisConfig, build_metrics
from tscomplex.entropy import check_pattern_length


def only(name, **params):
    """The single metric ``name`` as build_metrics makes it."""
    (metric,) = build_metrics(AnalysisConfig(metrics=(name,), **params))
    return metric


class TestAnalysisConfig:
    def test_battery_defaults(self):
        config = AnalysisConfig()
        assert config.metrics == ("sampen", "permen", "permtest", "runstest")
        assert config.m == 2
        assert config.r_factor == 0.2
        assert config.n == 5
        assert config.t == 5
        assert config.scales == (1, 2, 3, 4, 5, 10)
        assert config.runs_variant == "above_below_median"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            AnalysisConfig(metrics=("sampen", "apen"))

    def test_repeated_metric_rejected(self):
        with pytest.raises(ValueError, match="^metric named more than once: sampen$"):
            AnalysisConfig(metrics=("sampen", "permen", "sampen"))

    def test_build_metrics_order_follows_config(self):
        config = AnalysisConfig(metrics=("runstest", "sampen"))
        assert [m.name for m in build_metrics(config)] == ["runstest", "sampen"]

    @pytest.mark.parametrize("params", [{"m": 0}, {"n": 9}, {"t": 9}, {"t": 1},
                                        {"r_mode": "bogus"}, {"runs_variant": "bogus"}])
    def test_invalid_parameters_fail_when_metrics_are_built(self, params):
        with pytest.raises(ValueError):
            build_metrics(AnalysisConfig(**params))

    @pytest.mark.parametrize("make, name", [
        (lambda v: AnalysisConfig(m=v), "embedding length"),
        (lambda v: AnalysisConfig(n=v), "tuple size"),
        (lambda v: AnalysisConfig(t=v), "group size"),
        (lambda v: AnalysisConfig(scales=(1, v)), "scale"),
        (lambda v: coarse_grain(generate_iid("uniform", 20, seed=1), v), "scale"),
        (lambda v: mse_sweep(generate_iid("uniform", 20, seed=1), [1, v], build_metrics(
            AnalysisConfig(metrics=("permen",)))), "scale"),
    ], ids=["m", "n", "t", "config-scales", "coarse_grain", "mse_sweep"])
    @pytest.mark.parametrize("value", [4.9, np.float64(2.5)], ids=["float", "float64"])
    def test_integer_parameters_are_refused_not_truncated(self, make, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
            make(value)

    @pytest.mark.parametrize("two", [2.0, np.int64(2)], ids=["float", "int64"])
    def test_whole_numbers_are_accepted_as_ints(self, two):
        config = AnalysisConfig(m=two, n=two + 2, t=two + 1, scales=(1, two, two + 1))
        assert config.scales == (1, 2, 3) and all(type(s) is int for s in config.scales)
        assert [type(p) for p in (SampEnParams(m=two).m, PermEnParams(n=two).n,
                                  check_pattern_length(two, "group size"))] == [int] * 3
        series = generate_iid("uniform", 20, seed=1)
        assert coarse_grain(series, two).values.tolist() == coarse_grain(series, 2).values.tolist()
        profile = mse_sweep(series, [1, two], build_metrics(config))
        assert profile.scales == (1, 2) and all(type(s) is int for s in profile.scales)


class TestMetricResults:
    def test_entropy_metrics_carry_value_only(self):
        s = generate_iid("uniform", 400, seed=1)
        res = only("sampen")(s)
        assert res.metric == "sampen"
        assert res.statistic is None and res.df is None and res.p_value is None

    def test_permtest_carries_test_fields_and_warning(self):
        s = generate_iid("uniform", 1000, seed=1)
        res = only("permtest", t=5)(s)
        assert res.statistic == res.value
        assert res.df == 119.0
        assert 0.0 <= res.p_value <= 1.0
        assert any("low expected count" in w for w in res.warnings)

    def test_runstest_carries_p_value(self):
        s = generate_iid("uniform", 1000, seed=1)
        res = only("runstest")(s)
        assert res.statistic == res.value
        assert res.df is None
        assert 0.0 <= res.p_value <= 1.0
