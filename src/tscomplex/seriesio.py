"""Reading user-supplied series files and writing generated ones.

A series file is UTF-8 text with one finite decimal real per line: blank
lines are skipped, LF and CRLF both end a line, and a typographic minus
sign reads as '-'. Files are written at 17 significant digits, which
round-trips every float64 exactly.
"""
from __future__ import annotations

from math import isfinite
from pathlib import Path

from .core import DataError, Series

__all__ = ["read_series", "render_series", "write_series"]


def _parse_real(text: str, path: Path, line_no: int) -> float:
    # tolerate typographic minus signs in pasted data
    cleaned = text.strip().replace("−", "-")
    try:
        value = float(cleaned)
    except ValueError:
        raise DataError(f"{path}: non-numeric value {text.strip()!r} on line {line_no}") from None
    if not isfinite(value):
        raise DataError(f"{path}: non-finite value {text.strip()!r} on line {line_no}")
    return value


def read_series(file: str | Path) -> Series:
    """Parse a series file; the label is the file stem."""
    path = Path(file)
    if not path.is_file():
        raise DataError(f"missing file: {path}")
    values = []
    try:
        with path.open("r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                values.append(_parse_real(line, path, line_no))
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    if not values:
        raise DataError(f"{path}: no values")
    return Series(values, label=path.stem)


def render_series(series: Series) -> str:
    """The series-file text: one value per line at 17 significant digits."""
    return "".join(f"{v:.17g}\n" for v in series.values)


def write_series(series: Series, path: str | Path) -> None:
    """Write the series-file text of ``render_series`` to ``path``."""
    Path(path).write_text(render_series(series), encoding="utf-8")
