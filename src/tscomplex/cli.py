"""Command-line front end.

Subcommands: analyze, mse, generate, reproduce, compare-groups, plot.
Exit codes: 0 success (including skipped optional data), 1 usage error,
2 data error, 3 internal numerical error.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import get_args

from .core import DataError, MetricResult, NumericalError, Series, sample_sd
from .entropy import mse_sweep, mse_sweeps
from .experiments import DEFAULT_SEED, EXPERIMENTS, compare_groups, reproduce
from .generators import GeneratorSpec, build_series
from .metrics import DEFAULT_SCALES, METRIC_NAMES, AnalysisConfig, build_metrics
from .report import ExperimentReport, refuse_duplicate_labels, render_report, read_report_json
from .plots import PlotKind, render_plot
from .randomness import RunsVariant
from .seriesio import read_series, render_series

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    defaults = AnalysisConfig()
    p.add_argument("--metric", action="append", choices=METRIC_NAMES, dest="metrics",
                   help="metric to compute (repeatable; default: all four)")
    p.add_argument("--m", type=int, default=defaults.m, help="sample-entropy embedding length")
    p.add_argument("--r-factor", type=float, default=defaults.r_factor,
                   help="sample-entropy tolerance as a multiple of the series SD")
    p.add_argument("--absolute-r", action="store_true",
                   help="treat --r-factor as an absolute tolerance")
    p.add_argument("--n", type=int, default=defaults.n, help="permutation-entropy tuple size")
    p.add_argument("--t", type=int, default=defaults.t, help="permutation-test group size")
    p.add_argument("--runs-variant", choices=get_args(RunsVariant),
                   default=defaults.runs_variant)


def _add_scales_flag(p: argparse.ArgumentParser) -> None:
    # only the sweeping commands take it; the others score at scale 1
    p.add_argument("--scales", help="comma-separated scale factors for sweeps "
                   "(default: " + ",".join(map(str, DEFAULT_SCALES)) + ")")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")


def _config_from(args) -> AnalysisConfig:
    scales = getattr(args, "scales", None)
    return AnalysisConfig(
        metrics=tuple(args.metrics) if args.metrics else METRIC_NAMES,
        m=args.m,
        r_factor=args.r_factor,
        r_mode="absolute" if args.absolute_r else "per_input_sd",
        n=args.n,
        t=args.t,
        runs_variant=args.runs_variant,
        scales=(DEFAULT_SCALES if scales is None
                else tuple(int(s) for s in scales.split(",") if s.strip())),
    )


def _load_spec(text: str) -> GeneratorSpec:
    stripped = text.strip()
    if not stripped.startswith("{"):
        try:
            stripped = Path(stripped).read_text(encoding="utf-8")
        except (OSError, ValueError):  # ValueError: a NUL byte or bad UTF-8
            raise DataError(f"spec is neither inline JSON nor a readable file: "
                            f"{text!r}") from None
    return GeneratorSpec.from_json(stripped)


def _gather_inputs(args) -> list[str | Series]:
    """The series file paths, then the series built from each --spec."""
    inputs = list(args.inputs or ())
    inputs += [build_series(_load_spec(spec_text)) for spec_text in args.specs or ()]
    if not inputs:
        raise DataError("no inputs: pass series files and/or --spec")
    return inputs


def _as_series(item: str | Series) -> Series:
    return item if isinstance(item, Series) else read_series(item)


def _emit(text: str, out: str | None) -> None:
    """Write a command's output to the ``--out`` path, or to stdout without one."""
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    metrics = build_metrics(_config_from(args))
    inputs = _gather_inputs(args)
    loaded: list[Series | DataError] = []
    for item in inputs:
        try:
            loaded.append(_as_series(item))
        except DataError as exc:
            # only a file can fail here: a --spec is built by _gather_inputs
            loaded.append(exc)
    labels = [(got.label or "series") if isinstance(got, Series) else Path(item).stem
              for item, got in zip(inputs, loaded)]
    refuse_duplicate_labels(labels, metrics)
    read = [s for s in loaded if isinstance(s, Series)]
    profiles = iter(mse_sweeps(read, (1,), metrics))
    report = ExperimentReport()
    for label, got in zip(labels, loaded):
        if isinstance(got, Series):
            report.add_profile(label, next(profiles))
            continue
        for metric in metrics:
            report.add_result(label, 1, MetricResult.failed(metric.name, got))
    _emit(render_report(report, args.format), args.out)
    return EXIT_OK if read else EXIT_DATA


def _cmd_mse(args) -> int:
    config = _config_from(args)
    inputs = _gather_inputs(args)
    if len(inputs) != 1:
        raise DataError("mse takes exactly one input")
    series = _as_series(inputs[0])
    # an absolute tolerance is already fixed across scales, and a zero or
    # overflowing SD leaves none to fix: the per-input tolerance then fails
    # those cells
    if (args.fixed_r and config.r_mode == "per_input_sd"
            and 0 < (r := config.r_factor * sample_sd(series)) < math.inf):
        config = replace(config, r_factor=r, r_mode="absolute")
    profile = mse_sweep(series, config.scales, build_metrics(config),
                        partial="mean" if args.partial_blocks else "drop")
    report = ExperimentReport()
    report.add_profile(series.label or "series", profile)
    _emit(render_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_generate(args) -> int:
    _emit(render_series(build_series(_load_spec(args.spec))), args.out)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    config = _config_from(args)
    result = reproduce(
        args.experiment,
        data_dir=args.data_dir,
        seed=args.seed,
        replications=args.replications,
        config=config,
    )
    for line in result.summary_lines():
        print(line)
    if result.report.rows and (args.out or args.print_table):
        _emit(render_report(result.report, args.format), args.out)
    return EXIT_OK


def _cmd_compare_groups(args) -> int:
    metrics = build_metrics(_config_from(args))
    report, tests, untested = compare_groups(
        [read_series(path) for path in args.group_a],
        [read_series(path) for path in args.group_b],
        metrics, group_names=(args.name_a, args.name_b),
    )
    for metric in metrics:
        res = tests.get(metric.name)
        if res is None:
            print(f"{metric.name}: no t-test ({untested[metric.name]})")
        else:
            print(f"{metric.name}: t = {res.t_statistic:.4f}, df = {res.df:.1f}, "
                  f"p = {res.p_value:.4g} (means {res.mean_a:.4f} vs {res.mean_b:.4f})")
    if args.plot:
        _emit(render_plot(report, "box_by_group"), args.plot)
    if args.out:
        _emit(render_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_plot(args) -> int:
    report = read_report_json(args.report)
    _emit(render_plot(report, args.kind, rescale=args.rescale), args.out)
    return EXIT_OK


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tscomplex",
                     description="entropy and randomness-test toolkit for time series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[], help="score series at scale 1")
    p.add_argument("inputs", nargs="*", help="series files (plain lines)")
    p.add_argument("--spec", action="append", dest="specs",
                   help="generator spec, inline JSON or a path to a JSON file")
    _add_metric_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("mse", help="multi-scale sweep of one series")
    p.add_argument("inputs", nargs="*", help="series file")
    p.add_argument("--spec", action="append", dest="specs")
    p.add_argument("--partial-blocks", action="store_true",
                   help="average the trailing remainder into a short final block")
    p.add_argument("--fixed-r", action="store_true",
                   help="hold the sample-entropy tolerance at --r-factor times the "
                        "original series' SD instead of recomputing it per scale "
                        "(no effect with --absolute-r)")
    _add_metric_flags(p)
    _add_scales_flag(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_mse)

    p = sub.add_parser("generate", help="emit a series file from a generator spec")
    p.add_argument("--spec", required=True, help="inline JSON or a path to a JSON file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("reproduce", help="regenerate a reference table and check it")
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--data-dir", help="directory with user-supplied data files")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--print-table", action="store_true",
                   help="also print the full report table")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="base seed for the experiment's generated inputs")
    _add_metric_flags(p)
    _add_scales_flag(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("compare-groups", help="score two groups and t-test each metric")
    p.add_argument("--a", dest="group_a", nargs="+", required=True, metavar="FILE")
    p.add_argument("--b", dest="group_b", nargs="+", required=True, metavar="FILE")
    p.add_argument("--name-a", default="A")
    p.add_argument("--name-b", default="B")
    p.add_argument("--plot", help="write a box_by_group SVG here")
    _add_metric_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_compare_groups)

    p = sub.add_parser("plot", help="render an SVG chart from a JSON report")
    p.add_argument("report", help="report JSON path")
    p.add_argument("--kind", choices=get_args(PlotKind), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rescale", action="store_true",
                   help="grouped_bars only: draw every metric on the [0,1] comparison "
                        "scale (1/ln chi-square, 1/|z|, then min-max per metric)")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"tscomplex: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"tscomplex: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # an input too large to hold, such as a spec's length
        print(f"tscomplex: data error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA
    # after the two above, which subclass it: an invalid parameter value
    except ValueError as exc:
        print(f"tscomplex: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
