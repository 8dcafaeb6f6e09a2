"""Seeded generators: determinism, supports, recipes, spec JSON."""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from tscomplex import (
    DataError,
    GeneratorSpec,
    NumericalError,
    add_noise,
    arma_simulate,
    build_series,
    derive_rng,
    derive_seed,
    generate_iid,
    logistic_map,
    sample_sd,
)
from tscomplex import generators
from tscomplex.generators import _KINDS

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SPEC_SECTION = re.search(r"^A generator spec is a JSON object.*?^```\n.*?^```$", _README,
                         re.S | re.M).group(0)


class TestIid:
    @pytest.mark.parametrize("dist", ["uniform", "normal", "exponential"])
    def test_bit_identical_for_same_inputs(self, dist):
        a = generate_iid(dist, 500, seed=9)
        b = generate_iid(dist, 500, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = generate_iid("uniform", 100, seed=1)
        b = generate_iid("uniform", 100, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_uniform_support(self):
        x = generate_iid("uniform", 5000, seed=3).values
        assert np.all((x >= 0.0) & (x < 1.0))

    def test_exponential_mean_band(self):
        x = generate_iid("exponential", 10000, seed=4).values
        assert np.all(x >= 0.0)
        assert 0.95 <= x.mean() <= 1.05

    def test_exponential_rate(self):
        x = generate_iid("exponential", 10000, seed=4, rate=2.0).values
        assert 0.45 <= x.mean() <= 0.55

    def test_normal_moments(self):
        x = generate_iid("normal", 20000, seed=6).values
        assert abs(x.mean()) < 0.03
        assert 0.97 <= x.std(ddof=1) <= 1.03

    def test_invalid_length(self):
        with pytest.raises(DataError):
            generate_iid("uniform", 0, seed=1)

    def test_negative_burn_in_is_refused(self):
        with pytest.raises(DataError, match=r"^burn_in must be >= 0, got -3$"):
            generate_iid("uniform", 10, 0, burn_in=-3)

    def test_unknown_distribution_names_the_known_ones(self):
        with pytest.raises(DataError, match="unknown distribution 'bogus'; choose from "
                                            "uniform, normal, exponential"):
            generate_iid("bogus", 10, 0)


class TestDeriveSeed:
    def test_distinct_keys_give_distinct_streams(self):
        a = derive_rng(7, 0, 0).random(8)
        b = derive_rng(7, 0, 1).random(8)
        c = derive_rng(7, 1, 0).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reproducible(self):
        assert np.array_equal(derive_rng(7, 3).random(8), derive_rng(7, 3).random(8))

    def test_seed_sequence_passthrough(self):
        ss = derive_seed(11, 2)
        assert np.array_equal(derive_rng(ss).random(4), derive_rng(11, 2).random(4))

    def test_seed_sequence_takes_no_key(self):
        with pytest.raises(TypeError):
            derive_seed(derive_seed(11, 2), 3)


class TestLogisticMap:
    def test_fixed_point_of_r_two(self):
        s = logistic_map(2.0, 0.5, keep=5, total=100)
        assert s.values.tolist() == [0.5] * 5

    def test_battery_recipe_is_period_four(self):
        s = logistic_map(3.5, 0.3, keep=1000, total=5000)
        vals = s.values
        assert np.all(vals[4:] == vals[:-4])
        cycle = sorted(set(vals.tolist()))
        assert len(cycle) == 4
        # the classical period-4 attractor of r=3.5
        for got, ref in zip(cycle, (0.382820, 0.500884, 0.826941, 0.874997)):
            assert got == pytest.approx(ref, abs=1e-6)

    def test_chaotic_regime_support_and_aperiodicity(self):
        s = logistic_map(3.9, 0.3, keep=1000, total=5000)
        vals = s.values
        assert np.all((vals > 0.0) & (vals < 1.0))
        for period in range(1, 17):
            assert not np.all(vals[period:] == vals[:-period])

    def test_seed_value_is_first_element(self):
        s = logistic_map(3.9, 0.3, keep=5, total=5)
        assert s.values[0] == 0.3

    def test_orbit_escape(self):
        # x0=0.5 at r=4 maps to 1.0, which leaves the open interval
        with pytest.raises(NumericalError, match="orbit escaped"):
            logistic_map(4.0, 0.5, keep=10, total=10)

    # at r=4, x0=0.5 maps to 1.0 at once; this x0 maps to 0.5 first
    @pytest.mark.parametrize("x0, step", [(0.5, 1), (0.14644660940672624, 2)])
    def test_orbit_escape_names_the_first_step_and_value(self, x0, step):
        with pytest.raises(NumericalError) as exc_info:
            logistic_map(4.0, x0, keep=10, total=10)
        assert str(exc_info.value) == f"orbit escaped (0,1) at step {step}: 1.0"

    @pytest.mark.parametrize("kwargs", [dict(r=4.5, x0=0.3), dict(r=3.5, x0=0.0),
                                        dict(r=3.5, x0=1.0), dict(r=0.0, x0=0.3),
                                        dict(r=3.5, x0=0.3, keep=0),
                                        dict(r=3.5, x0=0.3, keep=11)])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(DataError):
            logistic_map(**{"keep": 10, "total": 10, **kwargs})


class TestArma:
    def test_degenerate_arma_is_iid_normal(self):
        a = arma_simulate([], [], 200, seed=5, burn_in=0)
        b = generate_iid("normal", 200, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_ar1_variance_band(self):
        # theoretical AR(1) variance 1/(1-0.81) ~ 5.263
        s = arma_simulate([0.9], [], 20000, seed=8)
        assert 4.7 <= float(np.var(s.values, ddof=1)) <= 5.9

    def test_unstable_coefficients_rejected(self):
        with pytest.raises(DataError, match="unstable process"):
            arma_simulate([1.1], [], 100, seed=1)
        with pytest.raises(DataError, match="unstable process"):
            arma_simulate([1.0], [], 100, seed=1)
        with pytest.raises(DataError, match="unstable process"):
            arma_simulate([0.5, 0.6], [], 100, seed=1)

    def test_negative_burn_in_is_refused(self):
        with pytest.raises(DataError, match=r"^burn_in must be >= 0, got -4$"):
            arma_simulate([0.5], [], 10, 0, burn_in=-4)

    def test_burn_in_discards_prefix(self):
        long = arma_simulate([0.7], [-0.2], 300, seed=2, burn_in=0)
        trimmed = arma_simulate([0.7], [-0.2], 200, seed=2, burn_in=100)
        assert np.array_equal(trimmed.values, long.values[100:])

    def test_deterministic(self):
        a = arma_simulate([0.9, -0.2], [-0.7, 0.1], 100, seed=3)
        b = arma_simulate([0.9, -0.2], [-0.7, 0.1], 100, seed=3)
        assert np.array_equal(a.values, b.values)


class TestAddNoise:
    def test_zero_multiplier_is_identity(self):
        base = generate_iid("uniform", 100, seed=1)
        out = add_noise(base, seed=2, sd_multiplier=0.0)
        assert np.array_equal(out.values, base.values)

    def test_relative_noise_sd_band(self):
        base = generate_iid("normal", 10000, seed=3)
        s = sample_sd(base)
        out = add_noise(base, seed=4, sd_multiplier=1.0)
        noise_sd = float(np.std(out.values - base.values, ddof=1))
        assert 0.95 * s <= noise_sd <= 1.05 * s

    def test_absolute_mode(self):
        base = generate_iid("normal", 10000, seed=5)
        out = add_noise(base, seed=6, sd_absolute=0.1)
        noise_sd = float(np.std(out.values - base.values, ddof=1))
        assert 0.095 <= noise_sd <= 0.105

    def test_negative_multiplier_is_refused(self):
        with pytest.raises(DataError, match="sd multiplier must be >= 0, got -1.0"):
            add_noise(generate_iid("uniform", 10, seed=1), seed=1, sd_multiplier=-1.0)

    def test_exactly_one_mode_required(self):
        base = generate_iid("uniform", 10, seed=1)
        with pytest.raises(ValueError):
            add_noise(base, seed=1)
        with pytest.raises(ValueError):
            add_noise(base, seed=1, sd_multiplier=0.1, sd_absolute=0.1)

    def test_deterministic_per_seed(self):
        base = generate_iid("uniform", 100, seed=1)
        a = add_noise(base, seed=9, sd_absolute=0.5)
        b = add_noise(base, seed=9, sd_absolute=0.5)
        assert np.array_equal(a.values, b.values)


class TestGeneratorSpec:
    def test_json_round_trip(self):
        spec = GeneratorSpec(kind="logistic_map", params={"r": 3.7, "x0": 0.3},
                             length=1000, burn_in=4000, seed=0, label="chaos")
        text = ('{"kind": "logistic_map", "params": {"r": 3.7, "x0": 0.3}, '
                '"length": 1000, "burn_in": 4000, "seed": 0, "label": "chaos"}')
        assert GeneratorSpec.from_json(text) == spec

    def test_whole_number_fields_are_kept_as_ints(self):
        spec = GeneratorSpec("uniform", length=4.0, burn_in=np.int64(1), seed=2.0)
        assert spec == GeneratorSpec("uniform", length=4, burn_in=1, seed=2)
        assert [type(v) for v in (spec.length, spec.burn_in, spec.seed)] == [int] * 3

    def test_from_json_requires_object(self):
        with pytest.raises(DataError):
            GeneratorSpec.from_json("[1,2,3]")
        with pytest.raises(DataError):
            GeneratorSpec.from_json("{not json")

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="unknown generator kind"):
            GeneratorSpec(kind="brownian")

    def test_missing_kind(self):
        with pytest.raises(DataError, match="^generator spec missing field 'kind'$"):
            GeneratorSpec.from_json('{"length": 5}')

    def test_overlay_chain_deeper_than_the_stack_builds(self):
        # each link adds its own seeded noise to the series its base builds
        spec = {"kind": "uniform", "length": 10}
        expected = generate_iid("uniform", 10, 0)
        for seed in range(sys.getrecursionlimit()):
            spec = {"kind": "noise_overlay", "params": {"base": spec, "sd_absolute": 0.1},
                    "seed": seed}
            expected = add_noise(expected, seed, sd_absolute=0.1)
        built = build_series(GeneratorSpec.from_dict(spec))
        assert built.label == expected.label == "uniform"
        assert built.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("link, message", [
        ({"params": {"sd_absolute": "x"}}, "sd_absolute must be a finite number, got 'x'"),
        ({"params": {"sd_absolute": -1}}, "noise sd must be >= 0"),
        ({"params": {"sd_absolute": 1, "sd_multiplier": 1}}, "exactly one of"),
        ({"params": {"sd_absolute": 1}, "length": 7}, r"length must equal the base's \(10\)"),
        ({"params": {"sd_absolute": 1}, "burn_in": 0}, "burn_in must be left to the base"),
    ], ids=["string", "negative", "both", "length", "burn_in"])
    def test_malformed_link_is_refused_before_any_draw(self, monkeypatch, link, message):
        monkeypatch.setattr(generators, "generate_iid", lambda *a, **k: pytest.fail("drew"))
        inner = {"kind": "noise_overlay", "params": {"base": {"kind": "uniform", "length": 10},
                                                     "sd_multiplier": 0.5}}
        spec = {"kind": "noise_overlay", **link, "params": {**link["params"], "base": inner}}
        with pytest.raises(DataError, match=message):
            build_series(GeneratorSpec.from_dict(spec))

    def test_arma_burn_in_defaults_to_500(self):
        def build(**burn_in):
            return build_series(GeneratorSpec.from_dict(
                {"kind": "arma", "params": {"ar": [0.9], "ma": []}, "length": 100, "seed": 1,
                 **burn_in})).values
        default = build()
        assert default.tobytes() == build(burn_in=500).tobytes()
        assert default.tobytes() != build(burn_in=0).tobytes()

    def test_build_each_kind(self):
        specs = [
            {"kind": "uniform", "length": 50, "seed": 1},
            {"kind": "normal", "length": 50, "seed": 1},
            {"kind": "exponential", "params": {"rate": 2.0}, "length": 50, "seed": 1},
            {"kind": "logistic_map", "params": {"r": 3.9, "x0": 0.3},
             "length": 50, "burn_in": 100, "seed": 0},
            {"kind": "arma", "params": {"ar": [0.7], "ma": [-0.2]}, "length": 50, "seed": 1},
        ]
        for d in specs:
            series = build_series(GeneratorSpec.from_dict(d))
            assert len(series) == 50

    def test_build_matches_direct_call(self):
        spec = GeneratorSpec.from_json(json.dumps(
            {"kind": "logistic_map", "params": {"r": 3.5, "x0": 0.3},
             "length": 1000, "burn_in": 4000, "seed": 0}))
        direct = logistic_map(3.5, 0.3, keep=1000, total=5000)
        assert np.array_equal(build_series(spec).values, direct.values)

    def test_noise_overlay(self):
        d = {"kind": "noise_overlay",
             "params": {"base": {"kind": "logistic_map", "params": {"r": 3.5, "x0": 0.3},
                                 "length": 1000, "burn_in": 4000, "seed": 0},
                        "sd_absolute": 0.1},
             "length": 1000, "seed": 77}
        noisy = build_series(GeneratorSpec.from_dict(d))
        clean = logistic_map(3.5, 0.3, keep=1000, total=5000)
        resid = noisy.values - clean.values
        assert 0.08 <= float(np.std(resid, ddof=1)) <= 0.12

    def test_readme_examples_build(self):
        block = re.search(r"^```\n(.*?)\n```$", SPEC_SECTION, re.S | re.M).group(1)
        examples = [json.loads(line) for line in block.splitlines()]
        assert [d["kind"] for d in examples] == ["logistic_map", "arma", "noise_overlay"]
        for d in examples:
            assert len(build_series(GeneratorSpec.from_dict(d))) == 1000

    def test_readme_table_lists_each_kinds_params(self):
        listed = {}
        for kinds, params in re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| (.*?) \|", SPEC_SECTION,
                                        re.M):
            for kind in re.findall(r"`(\w+)`", kinds):
                listed[kind] = tuple(re.findall(r"`([a-z_]\w*)`", params))
        assert listed == {kind: row.params for kind, row in _KINDS.items()}

    def test_noise_overlay_requires_base(self):
        with pytest.raises(DataError, match="base"):
            build_series(GeneratorSpec(kind="noise_overlay", params={"sd_absolute": 0.1}))
