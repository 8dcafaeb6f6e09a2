"""Core value types shared by every other module: the series container,
its sample standard deviation, coarse-graining and metric results, plus
the number check that the spec and report readers apply to JSON fields.

Everything here is a pure function over immutable values; instances are
safe to share between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np


class DataError(ValueError):
    """Raised for malformed or unusable input data (files, series, configs)."""


class NumericalError(ValueError):
    """Raised when a computation degenerates (no matches, zero variance, ...)."""


@dataclass(frozen=True)
class Series:
    """An ordered sequence of finite real-valued samples.

    ``values`` is coerced to a read-only 1-d float64 array. Construction
    rejects empty input and non-finite samples.
    """

    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise DataError(f"series values must be 1-d, got shape {arr.shape}")
        if arr.size == 0:
            raise DataError("empty input")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DataError(f"non-finite sample at index {bad}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def with_label(self, label: str) -> "Series":
        return Series(self.values, label)


def json_number(value: object, name: str, kind: type = float):
    """A JSON field's value as a finite ``kind``: a float field takes a JSON
    integer or number, an int field only a JSON integer. A boolean, a string
    or anything else is a DataError naming the field."""
    try:
        valid = (isinstance(value, int if kind is int else (int, float))
                 and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an integer too large for a float
        valid = False
    if not valid:
        raise DataError(f"{name} must be a finite {'integer' if kind is int else 'number'}, "
                        f"got {value!r}")
    return kind(value)


def sample_sd(series: Series) -> float:
    """Sample standard deviation (divisor n-1); 0.0 for a single sample."""
    x = series.values
    return float(np.std(x, ddof=1)) if x.size > 1 else 0.0


def coarse_grain(series: Series, scale: int, *, partial: Literal["drop", "mean"] = "drop") -> Series:
    """Down-sample by replacing each disjoint block of ``scale`` consecutive
    samples with its arithmetic mean.

    ``partial="drop"`` (default) discards the trailing remainder, giving
    exactly ``floor(N/scale)`` output samples. ``partial="mean"`` keeps the
    remainder as one short final block; the reproduction harness uses this
    mode because the reference result tables were produced that way.
    """
    n = len(series)
    scale = int(scale)
    if scale < 1 or scale > n:
        raise DataError(f"invalid scale {scale} for series of length {n}")
    if scale == 1:
        return series
    nblocks = n // scale
    x = series.values
    out = x[: nblocks * scale].reshape(nblocks, scale).mean(axis=1)
    rem = n - nblocks * scale
    if rem and partial == "mean":
        out = np.append(out, x[nblocks * scale:].mean())
    return Series(out, series.label)


@dataclass(frozen=True)
class MetricResult:
    """A named score with optional test statistic, df and p-value."""

    metric: str
    value: float
    statistic: float | None = None
    df: float | None = None
    p_value: float | None = None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Metric:
    """A named evaluation of a series, used by sweeps and the CLI."""

    name: str
    evaluate: Callable[[Series], MetricResult] = field(repr=False)

    def __call__(self, series: Series) -> MetricResult:
        return self.evaluate(series)
