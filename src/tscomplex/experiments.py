"""Experiment recipes: the reference result tables and the CHF/NSR comparison.

``EXPERIMENTS`` declares each table once: its recipe, its default number of
replications and the metrics its property checks read. ``reproduce`` builds
the metrics and hands them to the recipe, which rebuilds the table, compares
every checkable cell against the embedded reference values, and evaluates
the table's qualitative properties (orderings, monotonicity, p-value
fractions). Deterministic cells are compared at fixed tolerances;
stochastic cells are validated as bands over seeded replications or
reported as information only.

Multi-scale tables are swept with ``partial="mean"`` coarse-graining
because the source pipeline kept the trailing remainder as a short block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Iterable, Sequence

import numpy as np

from . import reference as ref
from .core import DataError, Metric, MetricResult, NumericalError, Series, check_int
from .entropy import MseProfile, mse_sweeps
from .generators import add_noise, arma_simulate, derive_seed, generate_iid, logistic_map
from .metrics import METRIC_NAMES, AnalysisConfig, build_metrics, row_of
from .randomness import TTestResult, welch_t_test
from .report import ExperimentReport, refuse_duplicate_labels
from .seriesio import read_series

__all__ = [
    "EXPERIMENTS",
    "CellComparison",
    "PropertyCheck",
    "ReproduceResult",
    "reproduce",
    "logistic_recipe",
    "compare_groups",
    "find_santafe_file",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 42


@dataclass(frozen=True, kw_only=True)
class CellComparison(ref.RefCell):
    """A reference cell and what the run observed for it."""

    observed: float
    passed: bool | None  # None for info cells

    def line(self) -> str:
        status = {True: "ok", False: "FAIL", None: "info"}[self.passed]
        out = (f"{self.label} | scale {self.scale} | {self.metric}: "
               f"got {self.observed:.6g}, reference {self.value:.6g}")
        if self.kind == "exact":
            out += f" (tol {self.tol:g})"
        elif self.kind == "band":
            out += f" (band +/- {self.tol:g})"
        out += f" [{status}]"
        if self.note:
            out += f"  # {self.note}"
        return out


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{self.name}: {'ok' if self.passed else 'FAIL'}  ({self.detail})"


@dataclass
class ReproduceResult:
    experiment: str
    status: str  # ok | skipped
    report: ExperimentReport
    comparisons: list[CellComparison] = field(default_factory=list)
    checks: list[PropertyCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        cells = all(c.passed is not False for c in self.comparisons)
        return cells and all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        lines = [f"experiment {self.experiment}: {self.status}"]
        lines += [c.line() for c in self.comparisons]
        lines += [c.line() for c in self.checks]
        lines += [f"note: {n}" for n in self.notes]
        if self.status == "ok":
            lines.append(f"result: {'PASS' if self.all_passed else 'FAIL'}")
        return lines


def logistic_recipe(r: float, label: str | None = None) -> Series:
    """The battery's logistic series: x0=0.3, 5000 generated, last 1000 kept."""
    return logistic_map(r, x0=0.3, keep=1000, total=5000,
                        label=label or f"logistic r={r:g}")


def _compare(report: ExperimentReport, cells: Sequence[ref.RefCell]) -> list[CellComparison]:
    out = []
    for cell in cells:
        try:
            row = report.get(cell.label, cell.scale, cell.metric)
        except KeyError:
            continue
        # a NaN or infinite observation fails every cell that is checked
        passed = None if cell.kind == "info" else abs(row.value - cell.value) <= cell.tol
        note = cell.note
        if cell.kind == "band":  # a replication mean: its warnings count failed ones
            note = "; ".join(filter(None, (note, *row.warnings)))
        out.append(CellComparison(**{**vars(cell), "note": note}, observed=row.value,
                                  passed=passed))
    return out


def _mean_result(profiles: Sequence[MseProfile], name: str) -> MetricResult:
    """Aggregate one metric's scale-1 results over replications: mean score,
    p-value of the mean statistic for test metrics (the convention the
    source tables use). Failed replications are left out and counted."""
    results = [p.results[(1, name)] for p in profiles]
    values = [r.value for r in results if math.isfinite(r.value)]
    if not values:
        return MetricResult.failed(name, "no successful replication")
    mean = float(np.mean(values))
    warn = ()
    failed = len(results) - len(values)
    if failed:
        warn = (f"{failed} replication(s) failed",)
    tail = row_of(name).tail
    if tail is None:
        return MetricResult(metric=name, value=mean, warnings=warn)
    df = next((r.df for r in results if r.df is not None), None)
    return MetricResult(metric=name, value=mean, statistic=mean, df=df,
                        p_value=tail(mean, df), warnings=warn)


def _ordered_counts(ladders: Iterable[Sequence[MseProfile]]) -> dict[str, int]:
    """Per metric, how many ladders are ordered. A ladder holds the scale-1
    profiles of a run of series from the most regular to the least; it is
    ordered when entropies strictly rise and |statistics| strictly fall."""
    counts: dict[str, int] = {}
    for ladder in ladders:
        for name in ladder[0].metrics:
            values = [p.results[(1, name)].value for p in ladder]
            keys = values if row_of(name).tail is None else [-abs(v) for v in values]
            counts[name] = counts.get(name, 0) + all(a < b for a, b in zip(keys, keys[1:]))
    return counts


# ---------------------------------------------------------------------------
# table2: logistic-map scores at scale 1
# ---------------------------------------------------------------------------

def _table2(metrics, scales, seed, replications, data_dir) -> ReproduceResult:
    clean = [logistic_recipe(r) for r in (3.5, 3.7, 3.9)]
    noisy = [add_noise(clean[0], derive_seed(seed, 3, rep), sd_absolute=0.1, label=ref.L35N)
             for rep in range(replications)]
    # noise replication 0 is also the report row, so it is scored with every
    # metric; the others only with the metrics of the band cells
    rows = clean + noisy[:1]
    report = ExperimentReport()
    profiles = mse_sweeps(rows, (1,), metrics)
    for series, profile in zip(rows, profiles):
        report.add_profile(series.label, profile)
    bands = [replace(c, note=f"mean of {replications} noise seeds")
             for c in ref.TABLE2 if c.kind == "band"]
    band_metrics = [m for m in metrics if m.name in {c.metric for c in bands}]
    noise_profiles = profiles[-1:] + mse_sweeps(noisy[1:], (1,), band_metrics)
    means = ExperimentReport()
    for m in band_metrics:
        means.add_result(ref.L35N, 1, _mean_result(noise_profiles, m.name))
    comparisons = (_compare(report, [c for c in ref.TABLE2 if c.kind != "band"])
                   + _compare(means, bands))
    return ReproduceResult("table2", "ok", report, comparisons, notes=[
        "clean logistic cells are deterministic; the noisy column uses seeded "
        "noise replications"])


# ---------------------------------------------------------------------------
# table3_logistic: multi-scale sweep of r=3.7 and the noisy r=3.5 series
# ---------------------------------------------------------------------------

def _table3(metrics, scales, seed, replications, data_dir) -> ReproduceResult:
    noisy = add_noise(logistic_recipe(3.5, label=ref.L35N), derive_seed(seed, 3, 0),
                      sd_absolute=0.1)
    rows = [logistic_recipe(3.7), noisy]
    report = ExperimentReport()
    for series, profile in zip(rows, mse_sweeps(rows, scales, metrics, partial="mean")):
        report.add_profile(series.label, profile)
    comparisons = _compare(report, ref.TABLE3_LOGISTIC)
    return ReproduceResult("table3_logistic", "ok", report, comparisons, notes=[
        "runs-test cells beyond scale 1 are informational: the source pipeline "
        "decimated instead of averaging for that test"])


# ---------------------------------------------------------------------------
# table1: iid uniform/normal/exponential battery
# ---------------------------------------------------------------------------

_TABLE1_DISTS = (ref.UNIFORM, ref.NORMAL, ref.EXPONENTIAL)


def _table1(metrics, scales, seed, replications, data_dir) -> ReproduceResult:
    permen = [m for m in metrics if m.name == "permen"]
    deep = [s for s in scales if s != 1]
    report = ExperimentReport()
    checks: list[PropertyCheck] = []
    p_cells_ok = 0
    p_cells = 0
    monotone_reps = 0
    for di, dist in enumerate(_TABLE1_DISTS):
        draws = [generate_iid(dist, 1000, derive_seed(seed, di, rep))
                 for rep in range(replications)]
        # scale-1 cells: replication means
        profiles = mse_sweeps(draws, (1,), metrics)
        for m in metrics:
            report.add_result(dist, 1, _mean_result(profiles, m.name))
        # deeper scales: single seeded draw, as in the source table
        if deep:
            report.add_profile(dist, mse_sweeps(draws[:1], deep, metrics, partial="mean")[0])
        if dist == ref.UNIFORM:  # this ladder drops the remainder, unlike the rows
            for profile in mse_sweeps(draws, scales, permen):
                pes = profile.values("permen")
                monotone_reps += all(pes[i + 1] <= pes[i] for i in range(len(pes) - 1))
        for scale in scales:
            for name in ("permtest", "runstest"):
                p = report.get(dist, scale, name).p_value
                p_cells += 1
                p_cells_ok += (p is not None and p > 0.05)

    comparisons = _compare(report, ref.TABLE1_MEANS)
    for (label, metric), (lo, hi) in ref.TABLE1_BANDS.items():
        value = report.get(label, 1, metric).value
        checks.append(PropertyCheck(
            name=f"{label} {metric} replication mean in [{lo}, {hi}]",
            passed=lo <= value <= hi,
            detail=f"mean {value:.4f} over {replications} replications",
        ))
    checks.append(PropertyCheck(
        name="permtest/runstest p-values > 0.05 in >= 80% of cells",
        passed=p_cells_ok >= 0.8 * p_cells,
        detail=f"{p_cells_ok}/{p_cells} cells",
    ))
    checks.append(PropertyCheck(
        name="uniform permen non-increasing across scales in >= 27/30 replications",
        passed=monotone_reps >= math.ceil(0.9 * replications),
        detail=f"{monotone_reps}/{replications} replications fully non-increasing",
    ))
    return ReproduceResult("table1", "ok", report, comparisons, checks, notes=[
        "cells are statistical: scale-1 rows are replication means, deeper scales "
        "single seeded draws"])


# ---------------------------------------------------------------------------
# santafe: laser set A scores and multi-scale sweep (needs the data file)
# ---------------------------------------------------------------------------

_SANTAFE_NAMES = ("santafe_a.txt", "santafe.txt", "laser.txt", "laser.dat",
                  "A.dat", "a.dat", "A.txt")


def find_santafe_file(data_dir: str | Path | None) -> Path | None:
    if data_dir is None:
        return None
    base = Path(data_dir)
    if base.is_file():
        return base
    for name in _SANTAFE_NAMES:
        candidate = base / name
        if candidate.is_file():
            return candidate
    return None


def _santafe(metrics, scales, seed, replications, data_dir) -> ReproduceResult:
    path = find_santafe_file(data_dir)
    if path is None:
        return ReproduceResult("santafe", "skipped", ExperimentReport(), notes=[
            "laser data file not found; pass --data-dir with one of "
            + ", ".join(_SANTAFE_NAMES)])
    clean = read_series(path).with_label(ref.SF_CLEAN)
    report = ExperimentReport()
    variants = [clean] + [add_noise(clean, derive_seed(seed, 5, vi), sd_multiplier=mult,
                                    label=label)
                          for vi, (mult, label) in enumerate(ref.SF_NOISE.items())]
    profiles = mse_sweeps(variants, (1,), metrics)
    for series, profile in zip(variants, profiles):
        report.add_profile(series.label, profile)
    # multi-scale rows for the clean series (scale-1 rows already present)
    deep = [s for s in scales if s != 1]
    if deep:
        report.add_profile(ref.SF_CLEAN, mse_sweeps([clean], deep, metrics, partial="mean")[0])
    comparisons = _compare(report, ref.SANTAFE_SCORES + ref.SANTAFE_MSE)

    # noise ordering (levels 0, 0.1, 0.2, 1 SD) with fresh derived seeds; the
    # clean series is deterministic, so its one profile starts every ladder
    reps = max(1, replications // 3)
    order_ok = _ordered_counts(
        profiles[:1] + mse_sweeps([add_noise(clean, derive_seed(seed, 6, rep, vi),
                                             sd_multiplier=mult)
                                   for vi, mult in enumerate(ref.SF_NOISE, start=1)],
                                  (1,), metrics)
        for rep in range(reps))
    checks = [
        PropertyCheck(
            name="sampen and permen increase with noise level 0 -> 0.1 -> 0.2 -> 1",
            passed=order_ok["sampen"] == reps and order_ok["permen"] == reps,
            detail=f"sampen {order_ok['sampen']}/{reps}, permen {order_ok['permen']}/{reps}",
        ),
        PropertyCheck(
            name="permtest chi-square and runs |z| decrease with noise level",
            passed=order_ok["permtest"] == reps and order_ok["runstest"] == reps,
            detail=f"permtest {order_ok['permtest']}/{reps}, runs {order_ok['runstest']}/{reps}",
        ),
    ]
    return ReproduceResult("santafe", "ok", report, comparisons, checks)


# ---------------------------------------------------------------------------
# arma_table4 / arma_table5
# ---------------------------------------------------------------------------

_ARMA_NAMES = [name for name, _, _ in ref.ARMA_PROCESSES]


def _arma_series(name: str, seed: int, rep: int) -> Series:
    pi = _ARMA_NAMES.index(name)
    _, ar, ma = ref.ARMA_PROCESSES[pi]
    return arma_simulate(ar, ma, 1000, derive_seed(seed, pi, rep), label=name)


def _arma4(metrics, scales, seed, replications, data_dir) -> ReproduceResult:
    report = ExperimentReport()
    per_proc: dict[str, list[MseProfile]] = {}
    for name in _ARMA_NAMES:
        draws = [_arma_series(name, seed, rep) for rep in range(replications)]
        per_proc[name] = mse_sweeps(draws, (1,), metrics)
        for m in metrics:
            report.add_result(name, 1, _mean_result(per_proc[name], m.name))

    # orderings per replication: entropy falls, test statistics rise,
    # from ARMA(2,2) to ARMA(1,1) to AR(1), so AR(1) starts each ladder
    counts = _ordered_counts([per_proc[n][rep] for n in reversed(_ARMA_NAMES)]
                             for rep in range(replications))
    need = math.ceil(0.9 * replications)
    ar1_p = median(p.results[(1, "permtest")].p_value for p in per_proc[ref.AR1])
    a22_p = median(p.results[(1, "runstest")].p_value for p in per_proc[ref.ARMA22])
    checks = [
        PropertyCheck(
            name=f"sampen and permen strictly decrease across {' > '.join(_ARMA_NAMES)} "
                 f"in >= {need}/{replications} replications",
            passed=counts["sampen"] >= need and counts["permen"] >= need,
            detail=f"sampen {counts['sampen']}, permen {counts['permen']}",
        ),
        PropertyCheck(
            name=f"permtest chi-square and runs |z| strictly increase in >= "
                 f"{need}/{replications} replications",
            passed=counts["permtest"] >= need and counts["runstest"] >= need,
            detail=f"permtest {counts['permtest']}, runs {counts['runstest']}",
        ),
        PropertyCheck(
            name="AR(1) permtest p median < 0.001",
            passed=ar1_p < 1e-3,
            detail=f"median p {ar1_p:.2e}",
        ),
        PropertyCheck(
            name="ARMA(2,2) runs-test p median < 0.01",
            passed=a22_p < 1e-2,
            detail=f"median p {a22_p:.2e}",
        ),
    ]
    comparisons = _compare(report, ref.ARMA_TABLE4)
    return ReproduceResult("arma_table4", "ok", report, comparisons, checks, notes=[
        "reference cells are unseeded draws; reported values are means over "
        f"{replications} seeded replications"])


def _arma5(metrics, scales, seed, replications, data_dir) -> ReproduceResult:
    draws = [_arma_series(name, seed, 0) for name in _ARMA_NAMES]
    profiles = dict(zip(_ARMA_NAMES, mse_sweeps(draws, scales, metrics, partial="mean")))
    report = ExperimentReport()
    for name, profile in profiles.items():
        report.add_profile(name, profile)
    # run-count decay for AR(1): median |z| per scale over replications, the
    # reported AR(1) series being replicate 0
    runs = [m for m in metrics if m.name == "runstest"]
    rest = [_arma_series(ref.AR1, seed, rep) for rep in range(1, replications)]
    ar1 = [profiles[ref.AR1]] + mse_sweeps(rest, scales, runs, partial="mean")
    med = np.median(np.abs([p.values("runstest") for p in ar1]), axis=0)
    checks = [
        PropertyCheck(
            name="AR(1) runs |z| median decays monotonically across scales",
            passed=bool(np.all(np.diff(med) < 0)),
            detail="median |z| by scale: " + ", ".join(f"{v:.2f}" for v in med),
        ),
        PropertyCheck(
            name="AR(1) runs |z| starts near 21.9 and ends small",
            passed=bool(14.0 <= med[0] <= 30.0 and med[-1] <= 6.0),
            detail=f"scale {scales[0]} median {med[0]:.2f}, scale {scales[-1]} "
                   f"median {med[-1]:.2f}",
        ),
    ]
    comparisons = _compare(report, ref.ARMA_TABLE5)
    return ReproduceResult("arma_table5", "ok", report, comparisons, checks)


# ---------------------------------------------------------------------------
# group comparison, and chf_nsr: CHF vs NSR RR intervals (needs the data files)
# ---------------------------------------------------------------------------

def compare_groups(
    group_a: Sequence[Series],
    group_b: Sequence[Series],
    metrics: Sequence[Metric],
    group_names: tuple[str, str] = ("A", "B"),
) -> tuple[ExperimentReport, dict[str, TTestResult], dict[str, str]]:
    """Score every series in both groups with ``metrics`` and Welch-t-test
    each metric between them.

    Both groups are scored in one sweep, group A's series first; a score
    belongs to the group its series' position puts it in. Returns the
    per-series report (rows labeled ``group:series``, ready for a
    box_by_group plot), the t-test of each metric that has one, and the
    reason each other metric has none: fewer than two finite scores in a
    group, or scores that are equal within each group. Equal group names,
    a group name holding ``:`` (the plot reads a row's group up to its
    first ``:``) and two series with the same label are refused before any
    cell is scored.
    """
    if len(group_a) < 2 or len(group_b) < 2:
        raise DataError("each group needs at least 2 series")
    name_a, name_b = group_names
    if name_a == name_b or ":" in name_a + name_b:
        raise ValueError(f"group names must differ and hold no ':', got {name_a!r} "
                         f"and {name_b!r}")
    labels = [f"{gname}:{series.label}" for gname, group in zip(group_names, (group_a, group_b))
              for series in group]
    refuse_duplicate_labels(labels, metrics)
    profiles = mse_sweeps([*group_a, *group_b], (1,), metrics)
    report = ExperimentReport()
    for label, profile in zip(labels, profiles):
        report.add_profile(label, profile)
    tests: dict[str, TTestResult] = {}
    untested: dict[str, str] = {}
    for metric in metrics:
        a, b = ([v for p in group for v in p.values(metric.name) if math.isfinite(v)]
                for group in (profiles[:len(group_a)], profiles[len(group_a):]))
        if len(a) < 2 or len(b) < 2:
            untested[metric.name] = "fewer than 2 finite scores in a group"
            continue
        try:
            tests[metric.name] = welch_t_test(a, b)
        except NumericalError as exc:
            untested[metric.name] = str(exc)
    return report, tests, untested


def _chf_nsr(metrics, scales, seed, replications, data_dir) -> ReproduceResult:
    dirs = [Path(data_dir) / group for group in ("chf", "nsr")] if data_dir else []
    files = [sorted(d.glob("*.txt")) + sorted(d.glob("*.dat")) for d in dirs]
    if not files or min(map(len, files)) < 2:
        return ReproduceResult("chf_nsr", "skipped", ExperimentReport(), notes=[
            "RR-interval data not found; pass --data-dir holding chf/ and nsr/ with "
            "at least 2 series files (*.txt or *.dat) each"])
    chf, nsr = ([read_series(path) for path in group] for group in files)
    report, tests, untested = compare_groups(chf, nsr, metrics, group_names=("CHF", "NSR"))
    checks = []
    # sampen and the runs test separate the groups; permen and permtest do not
    for name, differ in (("sampen", True), ("runstest", True),
                         ("permen", False), ("permtest", False)):
        res = tests.get(name)
        p = res.p_value if res else math.nan  # a NaN fails either relation
        checks.append(PropertyCheck(
            name=f"{name} CHF vs NSR Welch p {'<' if differ else '>='} 0.05",
            passed=p < 0.05 if differ else p >= 0.05,
            detail=(f"p {p:.3g}, means {res.mean_a:.4f} vs {res.mean_b:.4f}" if res
                    else f"no test: {untested[name]}")))
    return ReproduceResult("chf_nsr", "ok", report, checks=checks)


# name -> (recipe, default replications, the metrics its property checks
# read). Every recipe is called as recipe(metrics, scales, seed, replications,
# data_dir); santafe and chf_nsr read data_dir, and a recipe whose default is
# None does not read replications. Reference-cell comparisons skip metrics
# left out of the config; the checks cannot.
EXPERIMENTS = {
    "table1": (_table1, 30, METRIC_NAMES),
    "table2": (_table2, 30, ()),
    "table3_logistic": (_table3, None, ()),
    "santafe": (_santafe, 30, METRIC_NAMES),
    "arma_table4": (_arma4, 10, METRIC_NAMES),
    "arma_table5": (_arma5, 10, ("runstest",)),
    "chf_nsr": (_chf_nsr, None, METRIC_NAMES),
}


def reproduce(experiment: str, *, data_dir: str | Path | None = None,
              seed: int = DEFAULT_SEED, replications: int | None = None,
              config: AnalysisConfig | None = None) -> ReproduceResult:
    """Regenerate one named experiment and check it. A given
    ``replications`` must be a whole number, at least 1, else a ValueError;
    so must the seed of an experiment that draws (``derive_seed``)."""
    if experiment not in EXPERIMENTS:
        raise DataError(f"unknown experiment {experiment!r}; choose from "
                        + ", ".join(EXPERIMENTS))
    recipe, default_replications, checked = EXPERIMENTS[experiment]
    config = config or AnalysisConfig()
    metrics = build_metrics(config)
    if replications is not None:
        replications = check_int(replications, "replications")
        if replications < 1:
            raise ValueError(f"replications must be >= 1, got {replications}")
    replications = replications or default_replications
    missing = [m for m in checked if m not in config.metrics]
    if missing:
        raise DataError(f"{experiment} checks read metric(s) {', '.join(missing)}, "
                        "which the --metric selection leaves out")
    return recipe(metrics, config.scales, seed, replications, data_dir)
