"""One check per argument rule: every entry point that takes an argument
refuses a bad value with the exception type and message of the rule's one
check (a boolean or a string included), and takes a whole number given as
a float or a numpy integer."""
import numpy as np
import pytest

from tscomplex import (DataError, GeneratorSpec, SampEnParams, Series, add_noise,
                       arma_simulate, build_series, coarse_grain, derive_seed, generate_iid,
                       logistic_map, mse_sweep, mse_sweeps, ordinal_pattern_counts,
                       permutation_entropy, permutation_test, render_report, welch_t_test)
from tscomplex.experiments import reproduce
from tscomplex.metrics import AnalysisConfig, build_metrics

SERIES = generate_iid("uniform", 50, seed=1)
PERMEN = build_metrics(AnalysisConfig(metrics=("permen",)))


def _scale_rows(scales, message):
    return [(lambda: AnalysisConfig(scales=scales), ValueError, message),
            (lambda: mse_sweep(SERIES, scales, PERMEN), ValueError, message)]


def _pattern_length_rows(n):
    size = f"must be an integer, got {n}" if n == 2.5 else f"must be in [2, 8], got {n}"
    return [(lambda: permutation_entropy(SERIES, n), ValueError, f"tuple size {size}"),
            (lambda: AnalysisConfig(n=n), ValueError, f"tuple size {size}"),
            (lambda: ordinal_pattern_counts(SERIES, n), ValueError, f"tuple size {size}"),
            (lambda: AnalysisConfig(t=n), ValueError, f"group size {size}"),
            (lambda: permutation_test(SERIES, n), ValueError, f"group size {size}")]


# (refusal, exact exception type, exact message), one row per rule and entry point
REFUSALS = {
    **dict(zip(["config-scales-empty", "sweep-scales-empty"],
               _scale_rows((), "empty scale list"))),
    **dict(zip(["config-scales-unsorted", "sweep-scales-unsorted"],
               _scale_rows((2, 1), "scales must be strictly increasing"))),
    **dict(zip(["config-scales-repeated", "sweep-scales-repeated"],
               _scale_rows((1, 1), "scales must be strictly increasing"))),
    **dict(zip(["config-scale-0", "sweep-scale-0"],
               _scale_rows((0, 1), "scales must be >= 1, got 0"))),
    **dict(zip(["config-scale-2.5", "sweep-scale-2.5"],
               _scale_rows((1, 2.5), "scale must be an integer, got 2.5"))),
    # a scale past a series' length is a fault of the data
    "sweep-scale-past-length": (lambda: mse_sweep(Series([1.0, 2.0, 3.0]), [1, 5], PERMEN),
                                DataError, "invalid scale 5 for series of length 3"),
    "config-metric-twice": (lambda: AnalysisConfig(metrics=("permen", "sampen", "permen")),
                            ValueError, "metric named more than once: permen"),
    "sweep-metric-twice": (lambda: mse_sweeps([SERIES], [1], PERMEN * 2),
                           ValueError, "metric named more than once: permen"),
    **{f"{entry}-{n}": row for n in (2.5, 1, 0, 9)
       for entry, row in zip(["permen-params", "config-n", "ordinal_pattern_counts",
                              "config-t", "permutation_test"], _pattern_length_rows(n))},
    "generate_iid-length": (lambda: generate_iid("uniform", 2.5, 0),
                            ValueError, "length must be an integer, got 2.5"),
    "generate_iid-burn_in": (lambda: generate_iid("uniform", 5, 0, burn_in=1.5),
                             ValueError, "burn_in must be an integer, got 1.5"),
    "generate_iid-seed": (lambda: generate_iid("uniform", 5, 1.5),
                          ValueError, "seed must be an integer, got 1.5"),
    "arma_simulate-length": (lambda: arma_simulate([0.5], [], 2.5, 0),
                             ValueError, "length must be an integer, got 2.5"),
    "arma_simulate-burn_in": (lambda: arma_simulate([0.5], [], 5, 0, burn_in=1.5),
                              ValueError, "burn_in must be an integer, got 1.5"),
    "logistic_map-keep": (lambda: logistic_map(3.7, 0.3, keep=2.5, total=10),
                          ValueError, "keep must be an integer, got 2.5"),
    "logistic_map-total": (lambda: logistic_map(3.7, 0.3, keep=2, total=10.5),
                           ValueError, "total must be an integer, got 10.5"),
    "spec-length": (lambda: build_series(GeneratorSpec("uniform", length=2.5)),
                    ValueError, "length must be an integer, got 2.5"),
    "spec-burn_in": (lambda: build_series(GeneratorSpec("uniform", burn_in=1.5)),
                     ValueError, "burn_in must be an integer, got 1.5"),
    "derive_seed": (lambda: derive_seed(1.5, 0), ValueError, "seed must be an integer, got 1.5"),
    "reproduce-replications": (lambda: reproduce("table2", replications=1.5),
                               ValueError, "replications must be an integer, got 1.5"),
    # table3_logistic reads no replications, but a given count is still checked
    "reproduce-replications-unread": (lambda: reproduce("table3_logistic", replications=2.5),
                                      ValueError, "replications must be an integer, got 2.5"),
    "reproduce-seed": (lambda: reproduce("table3_logistic", seed=42.7),
                       ValueError, "seed must be an integer, got 42.7"),
    "welch-nan": (lambda: welch_t_test([np.nan, 1.0], [1.0, 2.0]),
                  DataError, "non-finite observation at index 0 of group a"),
    "welch-inf": (lambda: welch_t_test([1.0, 2.0], [1.0, np.inf]),
                  DataError, "non-finite observation at index 1 of group b"),
    # a boolean is not a whole number, and a refused string is shown quoted
    "sampen-m-bool": (lambda: SampEnParams(m=True),
                      ValueError, "embedding length must be an integer, got True"),
    "generate_iid-length-bool": (lambda: generate_iid("uniform", True, 0),
                                 ValueError, "length must be an integer, got True"),
    "coarse_grain-bool": (lambda: coarse_grain(SERIES, True),
                          ValueError, "scale must be an integer, got True"),
    "permutation_test-bool": (lambda: permutation_test(SERIES, True),
                              ValueError, "group size must be an integer, got True"),
    "coarse_grain-string": (lambda: coarse_grain(SERIES, "5"),
                            ValueError, "scale must be an integer, got '5'"),
    # a list argument is a sequence, not one string or number
    "config-metrics-string": (lambda: AnalysisConfig(metrics="sampen"),
                              ValueError, "metrics must be a sequence, got 'sampen'"),
    **dict(zip(["config-scales-int", "sweep-scales-int"],
               _scale_rows(5, "scales must be a sequence, got 5"))),
    # a real parameter is a finite real number, not a string or a boolean
    "config-r_factor-string": (lambda: AnalysisConfig(r_factor="0.2"),
                               ValueError, "tolerance must be a real number, got '0.2'"),
    "config-r_factor-bool": (lambda: AnalysisConfig(r_factor=True),
                             ValueError, "tolerance must be a real number, got True"),
    "add_noise-sd_absolute-string": (lambda: add_noise(SERIES, 0, sd_absolute="0.1"),
                                     ValueError, "noise sd must be a real number, got '0.1'"),
    "add_noise-sd_multiplier-bool": (lambda: add_noise(SERIES, 0, sd_multiplier=True),
                                     ValueError, "sd multiplier must be a real number, got True"),
    "add_noise-sd_multiplier-nan": (lambda: add_noise(SERIES, 0, sd_multiplier=np.nan),
                                    ValueError, "sd multiplier must be finite, got nan"),
    "logistic_map-r-string": (lambda: logistic_map("3.7", 0.3, keep=5, total=10),
                              ValueError, "growth rate must be a real number, got '3.7'"),
    "logistic_map-r-bool": (lambda: logistic_map(True, 0.3, keep=5, total=10),
                            ValueError, "growth rate must be a real number, got True"),
    "logistic_map-x0-string": (lambda: logistic_map(3.7, "0.3", keep=5, total=10),
                               ValueError, "x0 must be a real number, got '0.3'"),
    "logistic_map-x0-nan": (lambda: logistic_map(3.7, np.nan, keep=5, total=10),
                            ValueError, "x0 must be finite, got nan"),
    "generate_iid-rate-string": (lambda: generate_iid("exponential", 5, 0, rate="2"),
                                 ValueError, "rate must be a real number, got '2'"),
    "generate_iid-rate-bool": (lambda: generate_iid("exponential", 5, 0, rate=True),
                               ValueError, "rate must be a real number, got True"),
    "generate_iid-rate-nan": (lambda: generate_iid("exponential", 5, 0, rate=np.nan),
                              ValueError, "rate must be finite, got nan"),
    "arma_simulate-ar-string": (lambda: arma_simulate(["0.5"], [], 5, 0),
                                ValueError, "AR coefficient must be a real number, got '0.5'"),
    "arma_simulate-ar-nan": (lambda: arma_simulate([np.nan], [], 5, 0),
                             ValueError, "AR coefficient must be finite, got nan"),
    "arma_simulate-ma-bool": (lambda: arma_simulate([0.5], [True], 5, 0),
                              ValueError, "MA coefficient must be a real number, got True"),
    **{f"spec-seed-{seed}": (lambda seed=seed: GeneratorSpec("uniform", seed=seed),
                             ValueError, f"seed must be an integer, got {seed}")
       for seed in (None, 1.5, True)},
}


@pytest.mark.filterwarnings("error")  # a numpy warning on the way is a failure too
@pytest.mark.parametrize("refusal, kind, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_bad_argument_is_refused_by_its_rule(refusal, kind, message):
    with pytest.raises(ValueError) as excinfo:
        refusal()
    assert type(excinfo.value) is kind  # DataError subclasses ValueError
    assert str(excinfo.value) == message


def _reproduced(seed, replications):
    result = reproduce("table2", seed=seed, replications=replications)
    return result.status, render_report(result.report, "json")


# each entry point's result for a whole number 2 given as ``two``
WHOLE_NUMBERS = {
    "config-scales": lambda two: AnalysisConfig(scales=(1, two)).scales,
    "sweep-scales": lambda two: mse_sweep(SERIES, [1, two], PERMEN).values("permen"),
    "permen-params": lambda two: permutation_entropy(SERIES, two),
    "ordinal_pattern_counts": lambda two: ordinal_pattern_counts(SERIES, two).tolist(),
    "permutation_test": lambda two: permutation_test(SERIES, two),
    "config-t": lambda two: build_metrics(AnalysisConfig(metrics=("permtest",), t=two))[0](SERIES),
    "generate_iid": lambda two: generate_iid("normal", two, two, burn_in=two).values.tolist(),
    "arma_simulate": lambda two: arma_simulate([0.5], [], two, two, burn_in=two).values.tolist(),
    "logistic_map": lambda two: logistic_map(3.7, 0.3, keep=two, total=two * 3).values.tolist(),
    "spec": lambda two: build_series(GeneratorSpec("uniform", length=two, burn_in=two,
                                                   seed=two)).values.tolist(),
    "derive_seed": lambda two: derive_seed(two, 3).generate_state(2).tolist(),
    "reproduce": lambda two: _reproduced(two, two),
}


@pytest.mark.parametrize("two", [2.0, np.int64(2)], ids=["float", "int64"])
@pytest.mark.parametrize("entry", WHOLE_NUMBERS.values(), ids=WHOLE_NUMBERS.keys())
def test_whole_number_is_taken_as_an_int(entry, two):
    assert entry(two) == entry(2)
