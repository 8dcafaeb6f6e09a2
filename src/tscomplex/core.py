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
    """Sample standard deviation (divisor n-1); 0.0 for a single sample, and
    inf or NaN, without a warning, where the squared deviations overflow."""
    x = series.values
    if x.size < 2:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.std(x, ddof=1))


def coarse_grain(series: Series, scale: int, *, partial: Literal["drop", "mean"] = "drop") -> Series:
    """Down-sample by replacing each disjoint block of ``scale`` consecutive
    samples with its arithmetic mean.

    ``partial="drop"`` (default) discards the trailing remainder, giving
    exactly ``floor(N/scale)`` output samples. ``partial="mean"`` keeps the
    remainder as one short final block; the reproduction harness uses this
    mode because the reference result tables were produced that way.

    The means are bit-identical to ``blocks.mean(axis=1)`` on the
    ``(N // scale, scale)`` blocks. For rows of fewer than 8 numbers numpy's
    add-reduction sums left to right from 0.0, so below scale 8 the block
    sums are built by the same adds, one whole column at a time, which
    avoids numpy's per-row overhead (3-5x faster at scales 2-5 on 64k
    points). The sum starts as ``column 0 + 0.0``, as the reduction does:
    a block of all -0.0 then sums to +0.0, as its mean does. From scale 8
    numpy sums in unrolled partial sums, whose order the column adds would
    not match, so ``mean`` is kept there. Where a block sum overflows, the
    means are those of the halved samples, doubled: halving and doubling
    change no bit of a normal number, so these are the means the same adds
    would give without overflow.
    """
    n = len(series)
    scale = int(scale)
    if scale < 1 or scale > n:
        raise DataError(f"invalid scale {scale} for series of length {n}")
    if scale == 1:
        return series
    nblocks = n // scale
    x = series.values
    blocks = x[: nblocks * scale].reshape(nblocks, scale)
    # a sum that overflows gives inf, or NaN where infs of both signs meet;
    # finite samples give neither otherwise, and those means are redone below
    with np.errstate(over="ignore", invalid="ignore"):
        if scale < 8:
            out = blocks[:, 0] + 0.0
            for j in range(1, scale):
                out += blocks[:, j]
            out /= scale
        else:
            out = blocks.mean(axis=1)
        rem = n - nblocks * scale
        if rem and partial == "mean":
            out = np.append(out, x[nblocks * scale:].mean())
    if not np.isfinite(out).all():
        out = coarse_grain(Series(x * 0.5), scale, partial=partial).values * 2.0
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

    @classmethod
    def failed(cls, metric: str, reason: object) -> MetricResult:
        """The cell of an evaluation that failed: NaN, with the reason as its warning."""
        return cls(metric, math.nan, warnings=(f"error: {reason}",))


@dataclass(frozen=True)
class Metric:
    """A named evaluation of a series, used by sweeps and the CLI.

    ``holds_lock`` declares that the evaluation holds the interpreter lock
    for most of its time, so a sweep made only of such metrics gains
    nothing from threads and runs in the calling thread.
    """

    name: str
    evaluate: Callable[[Series], MetricResult] = field(repr=False)
    holds_lock: bool = False

    def __call__(self, series: Series) -> MetricResult:
        return self.evaluate(series)
