"""Core value types shared by every other module: the series container,
its sample standard deviation, coarse-graining and metric results, plus
``read_lines``, the one reader of user files (series, report JSON, specs),
the number check that the spec and report readers apply to JSON fields,
and ``check_int`` and ``check_real``, the one checks of an integer and of
a finite real parameter.

Everything here but ``read_lines`` is a pure function over immutable
values; instances are safe to share between threads.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Literal

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


def read_lines(file: str | Path) -> Iterator[str]:
    """Yield a user file's UTF-8 lines as they are consumed; a decoding or
    OS failure is a one-line DataError that names the file."""
    try:
        with open(file, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        raise DataError(f"{file}: not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"cannot read {file}: {exc.strerror}") from None


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
    inf, without a warning, only where the SD itself passes the largest
    float.

    It does not depend on the unit: the values are scaled by the power of
    two that brings the largest |value| into [0.5, 1), so that no squared
    deviation over- or underflows, and the SD is scaled back. A power of
    two changes no bit of a normal number, so every SD that is finite and
    normal unscaled comes out bit for bit the same."""
    x = series.values
    if x.size < 2:
        return 0.0
    _, exp = math.frexp(float(np.abs(x).max()))
    sd = float(np.std(np.ldexp(x, -exp), ddof=1))
    try:
        return math.ldexp(sd, exp)
    except OverflowError:
        return math.inf


def check_int(value: object, name: str) -> int:
    """``value`` as an int when it is a whole number (``2``, ``2.0``,
    ``np.int64(2)``); anything else, such as 2.5, a boolean or a string, is
    a ValueError naming the parameter rather than a silent truncation."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf, a string
        pass
    raise ValueError(f"{name} must be an integer, got {_shown(value)}")


def check_real(value: object, name: str) -> float:
    """``value`` as a float when it is a finite real number (``0.2``, ``1``,
    ``np.float64(0.2)``); a boolean, a string or None is a ValueError naming
    the parameter, and so is NaN or an infinity."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):  # np.bool_ is not Real
        raise ValueError(f"{name} must be a real number, got {_shown(value)}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


def _shown(value: object) -> str:
    """A refused value as a message shows it: a string quoted, so that "5"
    does not read as the number 5; anything else as ``str`` prints it."""
    return repr(value) if isinstance(value, str) else str(value)


def check_partial(partial: str) -> str:
    """The remainder mode of coarse-graining; ValueError unless it is "drop" or "mean"."""
    if partial not in ("drop", "mean"):
        raise ValueError(f"partial must be 'drop' or 'mean', got {partial!r}")
    return partial


def coarse_grain(series: Series, scale: int, *, partial: Literal["drop", "mean"] = "drop") -> Series:
    """Down-sample by replacing each disjoint block of ``scale`` consecutive
    samples with its arithmetic mean.

    ``partial="drop"`` (default) discards the trailing remainder, giving
    exactly ``floor(N/scale)`` output samples. ``partial="mean"`` keeps the
    remainder as one short final block; the reproduction harness uses this
    mode because the reference result tables were produced that way. Any
    other ``partial``, or a scale that is not a whole number, is a
    ValueError.

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
    check_partial(partial)
    n = len(series)
    scale = check_int(scale, "scale")
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
    """A named evaluation of a series, used by sweeps and the CLI."""

    name: str
    evaluate: Callable[[Series], MetricResult] = field(repr=False)

    def __call__(self, series: Series) -> MetricResult:
        return self.evaluate(series)
