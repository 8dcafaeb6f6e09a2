"""One check per argument rule: every entry point that takes an argument
refuses a bad value with the exception type and message of the rule's one
check, and takes a whole number given as a float or a numpy integer."""
import numpy as np
import pytest

from tscomplex import (DataError, GeneratorSpec, PermEnParams, Series, arma_simulate,
                       build_series, derive_seed, generate_iid, logistic_map, mse_sweep,
                       mse_sweeps, ordinal_pattern_counts, permutation_test, render_report,
                       welch_t_test)
from tscomplex.experiments import reproduce
from tscomplex.metrics import AnalysisConfig, build_metrics

SERIES = generate_iid("uniform", 50, seed=1)
PERMEN = build_metrics(AnalysisConfig(metrics=("permen",)))


def _scale_rows(scales, message):
    return [(lambda: AnalysisConfig(scales=scales), ValueError, message),
            (lambda: mse_sweep(SERIES, scales, PERMEN), ValueError, message)]


def _pattern_length_rows(n):
    size = f"must be an integer, got {n}" if n == 2.5 else f"must be in [2, 8], got {n}"
    return [(lambda: PermEnParams(n=n), ValueError, f"tuple size {size}"),
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
    "permen-params": lambda two: PermEnParams(n=two).n,
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
