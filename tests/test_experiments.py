"""Reproduction harness and group comparison."""
import dataclasses
import math

import numpy as np
import pytest

from tscomplex import (
    DataError,
    ExperimentReport,
    Metric,
    MetricResult,
    NumericalError,
    SampEnParams,
    Series,
    add_noise,
    arma_simulate,
    derive_seed,
    generate_iid,
    mse_sweeps,
    sample_entropy,
)
from tscomplex.reference import L35N, RefCell
from tscomplex.experiments import (
    CellComparison,
    _compare,
    _mean_result,
    compare_groups,
    find_santafe_file,
    logistic_recipe,
    reproduce,
)
from tscomplex.metrics import METRIC_NAMES, AnalysisConfig, build_metrics


@pytest.fixture(scope="module")
def table2():
    return reproduce("table2")


class TestReproduceTable2:
    def test_status_ok(self, table2):
        assert table2.status == "ok"

    def test_clean_deterministic_cells_match(self, table2):
        flagged = {c for c in table2.comparisons if c.note.startswith("reference cell")}
        for c in table2.comparisons:
            if c.kind == "exact" and c not in flagged:
                assert c.passed, c.line()

    def test_known_irreproducible_cells_are_flagged(self, table2):
        flagged = [c for c in table2.comparisons if c.note.startswith("reference cell")]
        assert {(c.label, c.metric) for c in flagged} == {
            ("logistic r=3.9", "sampen"), ("logistic r=3.9", "permtest")}

    def test_noisy_band_cells(self, table2):
        bands = [c for c in table2.comparisons if c.kind == "band"]
        assert bands and all(c.passed for c in bands)

    def test_deterministic_across_runs(self, table2):
        again = reproduce("table2")
        for a, b in zip(table2.comparisons, again.comparisons):
            assert a == b

    def test_band_cells_honour_absolute_r(self):
        config = AnalysisConfig(m=3, r_factor=0.3, r_mode="absolute")
        result = reproduce("table2", seed=7, replications=3, config=config)
        band = next(c for c in result.comparisons
                    if c.kind == "band" and c.metric == "sampen")
        base = logistic_recipe(3.5, label=L35N)
        params = SampEnParams(m=3, r_factor=0.3, r_mode="absolute")
        expected = np.mean([
            sample_entropy(add_noise(base, derive_seed(7, 3, rep), sd_absolute=0.1),
                           params).value
            for rep in range(3)])
        assert band.observed == pytest.approx(expected, rel=1e-12)

    def test_band_mean_skips_and_counts_failed_replications(self):
        # at an absolute r of 0.004 some noise replications have no matches
        config = AnalysisConfig(metrics=("sampen",), r_factor=0.004, r_mode="absolute")
        result = reproduce("table2", config=config)
        band = next(c for c in result.comparisons if c.kind == "band")
        base = logistic_recipe(3.5, label=L35N)
        params = SampEnParams(r_factor=0.004, r_mode="absolute")
        values = []
        for rep in range(30):
            try:
                values.append(sample_entropy(
                    add_noise(base, derive_seed(42, 3, rep), sd_absolute=0.1), params).value)
            except NumericalError:
                pass
        assert len(values) == 26
        assert band.observed == pytest.approx(np.mean(values), rel=1e-12)
        assert band.note == "mean of 30 noise seeds; 4 replication(s) failed"


class TestReproduceOthers:
    def test_unknown_experiment(self):
        with pytest.raises(DataError, match="unknown experiment"):
            reproduce("table9")

    def test_table3_all_checkable_cells_pass(self):
        result = reproduce("table3_logistic")
        exact = [c for c in result.comparisons if c.kind == "exact"]
        assert len(exact) >= 19
        assert all(c.passed for c in exact), [c.line() for c in exact if not c.passed]

    def test_santafe_skips_without_data(self, tmp_path):
        result = reproduce("santafe", data_dir=tmp_path)
        assert result.status == "skipped"
        assert not result.comparisons

    def test_santafe_pipeline_with_substitute_data(self, tmp_path):
        # a stand-in periodic series exercises the full experiment path;
        # reference-value comparisons are only meaningful with the real data
        from tscomplex import write_series
        t = np.arange(1000)
        fake = Series(50.0 + 40.0 * np.sin(t / 3.0) * (1 + 0.3 * np.sin(t / 100.0)))
        write_series(fake, tmp_path / "santafe_a.txt")
        result = reproduce("santafe", data_dir=tmp_path, replications=6)
        assert result.status == "ok"
        labels = {r.label for r in result.report.rows}
        assert "santafe clean" in labels
        assert "santafe + 1 sd noise" in labels
        assert {r.scale for r in result.report.rows
                if r.label == "santafe clean"} == {1, 2, 3, 4, 5, 10}
        assert len(result.checks) == 2
        # scores must rise with noise on a regular base signal
        assert result.checks[0].passed, result.checks[0].line()

    def test_arma_table5_names_its_first_scale(self):
        result = reproduce("arma_table5", replications=3,
                           config=AnalysisConfig(metrics=("runstest",), scales=(2, 4)))
        ends = next(c for c in result.checks if "starts near" in c.name)
        assert ends.detail.startswith("scale 2 median ")
        assert ", scale 4 median " in ends.detail

    def test_find_santafe_file(self, tmp_path):
        assert find_santafe_file(None) is None
        assert find_santafe_file(tmp_path) is None
        target = tmp_path / "santafe_a.txt"
        target.write_text("1\n2\n")
        assert find_santafe_file(tmp_path) == target
        assert find_santafe_file(target) == target

    def test_scale_one_rows_match_direct_analyze(self):
        # sweep rows at scale 1 equal plain scale-1 evaluation
        result = reproduce("table3_logistic")
        series = logistic_recipe(3.7)
        for metric in build_metrics(AnalysisConfig()):
            direct = metric(series)
            row = result.report.get(series.label, 1, metric.name)
            assert row.value == direct.value


class TestMeanResult:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_one_replication_is_its_cell(self, seed):
        # the metric table's tail gives the mean the p-value the kernel gives
        # the cell, bit for bit
        series = [generate_iid("normal", 500, seed),
                  arma_simulate((0.9,), (), 500, seed),
                  add_noise(logistic_recipe(3.5), seed, sd_absolute=0.1)]
        metrics = build_metrics(AnalysisConfig())
        fields = ("value", "statistic", "df", "p_value")
        for profile in mse_sweeps(series, (1,), metrics):
            for metric in metrics:
                cell = profile.results[(1, metric.name)]
                mean = _mean_result([profile], metric.name)
                assert ([repr(getattr(mean, f)) for f in fields]
                        == [repr(getattr(cell, f)) for f in fields]), metric.name

    def test_no_successful_replication_is_a_failed_cell(self):
        # m=30 leaves no matching pair of length 31 in 1000 uniform samples
        draws = [generate_iid("uniform", 1000, seed) for seed in (1, 2)]
        profiles = mse_sweeps(draws, (1,), build_metrics(AnalysisConfig(m=30)))
        assert all(math.isnan(p.results[(1, "sampen")].value) for p in profiles)
        mean = _mean_result(profiles, "sampen")
        assert math.isnan(mean.value)
        assert (mean.metric, mean.statistic, mean.df, mean.p_value, mean.warnings) == (
            "sampen", None, None, None, ("error: no successful replication",))


class TestCompare:
    CELLS = [RefCell("e", 1, "sampen", 1.0, 1e-3, note="exact note"),
             RefCell("b", 1, "sampen", 1.0, 0.25, "band", note="band note"),
             RefCell("i", 1, "sampen", 1.0, kind="info", note="info note")]

    @staticmethod
    def _report(value, warnings=()):
        report = ExperimentReport()
        for label in "ebi":
            report.add_result(label, 1, MetricResult("sampen", value, warnings=warnings))
        return report

    @pytest.mark.parametrize("observed", (math.nan, math.inf, -math.inf))
    def test_non_finite_observation_fails_every_checked_cell(self, observed):
        compared = _compare(self._report(observed), self.CELLS)
        assert [c.passed for c in compared] == [False, False, None]
        assert [c.line().split("[")[1][:4] for c in compared] == ["FAIL", "FAIL", "info"]

    def test_comparison_is_its_cell_plus_the_observation(self):
        compared = _compare(self._report(1.1, ("1 replication(s) failed",)), self.CELLS)
        assert [c.passed for c in compared] == [False, True, None]
        for cell, c in zip(self.CELLS, compared):
            assert isinstance(c, CellComparison) and isinstance(c, RefCell)
            assert c.observed == 1.1
            kept = {f.name: getattr(c, f.name) for f in dataclasses.fields(RefCell)}
            # a band cell is a replication mean, whose warnings join its note
            note = cell.note + ("; 1 replication(s) failed" if cell.kind == "band" else "")
            assert repr(kept) == repr({**vars(cell), "note": note})
        info = compared[2]
        assert math.isnan(info.tol)
        assert info.line() == "i | scale 1 | sampen: got 1.1, reference 1 [info]  # info note"
        assert "(tol 0.001)" in compared[0].line()
        assert "(band +/- 0.25)" in compared[1].line()

    def test_missing_row_is_skipped(self):
        assert _compare(ExperimentReport(), self.CELLS) == []


class TestCompareGroups:
    def test_identical_groups_give_t_zero(self):
        series = [generate_iid("uniform", 300, seed=s, label=f"u{s}") for s in range(4)]
        report, tests, _ = compare_groups(series, series, build_metrics(AnalysisConfig()))
        for res in tests.values():
            assert res.t_statistic == 0.0
            assert res.p_value == 1.0

    def test_ar1_vs_iid_separates_on_sampen(self):
        ar = [arma_simulate([0.9], [], 1000, seed=s, label=f"ar{s}") for s in range(10)]
        iid = [generate_iid("normal", 1000, seed=100 + s, label=f"n{s}") for s in range(10)]
        sampen = build_metrics(AnalysisConfig(metrics=("sampen",)))
        report, tests, _ = compare_groups(ar, iid, sampen, group_names=("AR", "IID"))
        assert tests["sampen"].p_value < 0.01
        assert tests["sampen"].mean_a < tests["sampen"].mean_b
        labels = {r.label for r in report.rows}
        assert "AR:ar0" in labels and "IID:n3" in labels

    def test_shared_label_refused_before_any_cell(self):
        seen = []
        counting = Metric("count", lambda s: seen.append(len(s)))
        group = [generate_iid("uniform", 100, seed=s, label=f"u{s}") for s in range(2)]
        with pytest.raises(DataError, match=r"duplicate report key: \('B:u0', 1, 'count'\)"):
            compare_groups(group, [*group[:1], *group], [counting])
        assert seen == []

    @pytest.mark.parametrize("names", [("G", "G"), ("x:1", "x:2"), ("A", "B:")])
    def test_ambiguous_group_names_refused_before_any_cell(self, names):
        seen = []
        counting = Metric("count", lambda s: seen.append(len(s)))
        group = [generate_iid("uniform", 100, seed=s, label=f"u{s}") for s in range(4)]
        with pytest.raises(ValueError, match="group names must differ and hold no ':'"):
            compare_groups(group[:2], group[2:], [counting], group_names=names)
        assert seen == []

    def test_swapping_the_groups_flips_every_t(self):
        a = [arma_simulate([0.5], [], 400, seed=s, label=f"ar{s}") for s in range(3)]
        b = [generate_iid("normal", 400, seed=10 + s, label=f"n{s}") for s in range(4)]
        metrics = build_metrics(AnalysisConfig())
        _, forward, _ = compare_groups(a, b, metrics)
        _, backward, _ = compare_groups(b, a, metrics)
        assert set(forward) == set(backward) == set(METRIC_NAMES)
        for name, res in forward.items():
            assert res.t_statistic != 0.0
            assert backward[name].t_statistic == -res.t_statistic
            assert backward[name].p_value == res.p_value
            assert (backward[name].mean_a, backward[name].mean_b) == (res.mean_b, res.mean_a)

    def test_group_size_checked(self):
        s = generate_iid("uniform", 100, seed=1)
        with pytest.raises(DataError, match="at least 2"):
            compare_groups([s], [s, s], build_metrics(AnalysisConfig()))

    def test_chf_nsr_skips_without_data(self, tmp_path):
        result = reproduce("chf_nsr", data_dir=tmp_path)
        assert result.status == "skipped"
        assert not result.checks and not result.report.rows
