"""Metric wrappers and the analysis configuration."""
import pytest

from tscomplex import generate_iid
from tscomplex.metrics import AnalysisConfig, build_metrics


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
