"""Seeded synthetic-series generators for the experiment battery.

Randomness policy (pinned so results re-run bit-exactly in CI):

* bit source: numpy PCG64 seeded through SeedSequence;
* parallel replication derives independent streams with
  ``SeedSequence(entropy=seed, spawn_key=indices)``;
* uniform deviates: the generator's native 53-bit doubles in [0, 1);
* normal deviates: inverse normal CDF applied to grid midpoints
  ``(k + 0.5) / 2^53`` so the argument stays strictly inside (0, 1);
* exponential deviates: inverse CDF ``-log1p(-u) / rate``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Literal

import numpy as np
from scipy import signal, special

from .core import DataError, NumericalError, Series, sample_sd

__all__ = [
    "GeneratorSpec",
    "derive_seed",
    "derive_rng",
    "generate_iid",
    "logistic_map",
    "arma_simulate",
    "add_noise",
    "build_series",
]

IidDist = Literal["uniform", "normal", "exponential"]

_TWO53 = float(1 << 53)


def derive_seed(seed: int | np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Independent child seed for replicate ``key`` of base ``seed``.

    The documented mixing function: SeedSequence(entropy=seed, spawn_key=key).
    """
    if isinstance(seed, np.random.SeedSequence):
        if not key:
            return seed
        return np.random.SeedSequence(entropy=seed.entropy,
                                      spawn_key=tuple(seed.spawn_key) + tuple(key))
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))


def derive_rng(seed: int | np.random.SeedSequence, *key: int) -> np.random.Generator:
    """PCG64 generator for ``seed``, optionally forked by integer indices."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *key)))


def _uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.random(n)


def _normal(rng: np.random.Generator, n: int) -> np.ndarray:
    u = (rng.integers(0, 1 << 53, size=n) + 0.5) / _TWO53
    return special.ndtri(u)


def _exponential(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    return -np.log1p(-rng.random(n)) / rate


def generate_iid(
    dist: IidDist,
    n: int,
    seed: int | np.random.SeedSequence,
    *,
    rate: float = 1.0,
    burn_in: int = 0,
    label: str | None = None,
) -> Series:
    """Independent draws from Uniform(0,1), Normal(0,1) or Exponential(rate).

    Deterministic in (dist, n, seed): the same inputs always give the
    bit-identical series.
    """
    if n < 1:
        raise DataError(f"length must be >= 1, got {n}")
    rng = derive_rng(seed)
    total = n + burn_in
    if dist == "uniform":
        x = _uniform(rng, total)
    elif dist == "normal":
        x = _normal(rng, total)
    elif dist == "exponential":
        if rate <= 0:
            raise DataError(f"exponential rate must be positive, got {rate}")
        x = _exponential(rng, total, rate)
    else:
        raise ValueError(f"unknown distribution: {dist!r}")
    return Series(x[burn_in:], label or dist)


def logistic_map(
    r: float,
    x0: float,
    keep: int,
    total: int,
    *,
    label: str | None = None,
) -> Series:
    """Logistic-map orbit x -> r*x*(1-x), fully deterministic.

    The generated sequence starts at ``x0`` (the seed value is its first
    element) and has ``total`` values; the final ``keep`` are returned.
    Left-associated multiplication ``(r*x)*(1-x)`` is part of the recipe:
    chaotic orbits depend on it bit-for-bit.
    """
    if not 0 < x0 < 1:
        raise DataError(f"x0 must be in (0, 1), got {x0}")
    if not 0 < r <= 4:
        raise DataError(f"growth rate must be in (0, 4], got {r}")
    if keep < 1 or keep > total:
        raise DataError(f"keep must be in [1, total], got keep={keep} total={total}")
    seq = np.empty(total, dtype=np.float64)
    x = seq[0] = float(x0)
    for i in range(1, total):
        x = seq[i] = (r * x) * (1.0 - x)
    escaped = np.flatnonzero(~((seq > 0.0) & (seq < 1.0)))
    if escaped.size:
        i = escaped[0]
        raise NumericalError(f"orbit escaped (0,1) at step {i}: {seq[i]}")
    return Series(seq[total - keep:], label or f"logistic_map(r={r:g})")


def arma_simulate(
    ar: list[float] | tuple[float, ...],
    ma: list[float] | tuple[float, ...],
    n: int,
    seed: int | np.random.SeedSequence,
    *,
    burn_in: int = 500,
    label: str | None = None,
) -> Series:
    """Simulate x[t] = sum(ar_i x[t-i]) + e[t] + sum(ma_j e[t-j]) with
    standard-normal innovations, zero initial state, and the first
    ``burn_in`` outputs discarded.

    Raises on non-stationary AR coefficients (a root of the AR polynomial
    on or inside the unit circle).
    """
    if n < 1:
        raise DataError(f"length must be >= 1, got {n}")
    ar = [float(c) for c in ar]
    ma = [float(c) for c in ma]
    if ar:
        # roots of z^p - ar1 z^(p-1) - ... - arp must lie inside the unit circle
        roots = np.roots([1.0] + [-c for c in ar])
        if np.any(np.abs(roots) >= 1.0):
            raise DataError(f"unstable process (AR roots {np.abs(roots).max():.4f} >= 1)")
    rng = derive_rng(seed)
    eps = _normal(rng, n + burn_in)
    a = np.array([1.0] + [-c for c in ar])
    b = np.array([1.0] + ma)
    x = signal.lfilter(b, a, eps)
    return Series(x[burn_in:], label or f"arma({len(ar)},{len(ma)})")


def add_noise(
    series: Series,
    seed: int | np.random.SeedSequence,
    *,
    sd_multiplier: float | None = None,
    sd_absolute: float | None = None,
    label: str | None = None,
) -> Series:
    """Add iid Gaussian noise, sized either relative to the input's sample
    SD (``sd_multiplier``) or as an absolute SD (``sd_absolute``)."""
    if (sd_multiplier is None) == (sd_absolute is None):
        raise ValueError("specify exactly one of sd_multiplier / sd_absolute")
    if sd_multiplier is not None:
        if sd_multiplier < 0:
            raise DataError(f"sd multiplier must be >= 0, got {sd_multiplier}")
        sigma = sd_multiplier * sample_sd(series)
    else:
        if sd_absolute < 0:
            raise DataError(f"noise sd must be >= 0, got {sd_absolute}")
        sigma = float(sd_absolute)
    if sigma == 0.0:
        return Series(series.values, label or series.label)
    rng = derive_rng(seed)
    noisy = series.values + sigma * _normal(rng, len(series))
    return Series(noisy, label or series.label)


_KINDS = ("uniform", "normal", "exponential", "logistic_map", "arma", "noise_overlay")


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible description of a synthetic series.

    Parsed from a JSON object with fields kind, params, length, burn_in,
    seed (and an optional label). A burn_in of None means
    "kind default": 500 for arma, 0 otherwise.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    length: int = 1000
    burn_in: int | None = None
    seed: int = 0
    label: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DataError(f"unknown generator kind: {self.kind!r}")
        if self.length < 1:
            raise DataError(f"length must be >= 1, got {self.length}")
        if self.burn_in is not None and self.burn_in < 0:
            raise DataError(f"burn_in must be >= 0, got {self.burn_in}")

    @property
    def effective_burn_in(self) -> int:
        if self.burn_in is None:
            return 500 if self.kind == "arma" else 0
        return self.burn_in

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "GeneratorSpec":
        try:
            burn = d.get("burn_in")
            return cls(
                kind=d["kind"],
                params=dict(d.get("params", {})),
                length=int(d.get("length", 1000)),
                burn_in=None if burn is None else int(burn),
                seed=int(d.get("seed", 0)),
                label=d.get("label"),
            )
        except KeyError as exc:
            raise DataError(f"generator spec missing field {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid generator spec JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DataError("generator spec JSON must be an object")
        return cls.from_dict(data)


def build_series(spec: GeneratorSpec) -> Series:
    """Materialize a GeneratorSpec into a Series."""
    p = spec.params
    if spec.kind in ("uniform", "normal", "exponential"):
        return generate_iid(
            spec.kind, spec.length, spec.seed,
            rate=float(p.get("rate", 1.0)),
            burn_in=spec.effective_burn_in,
            label=spec.label,
        )
    if spec.kind == "logistic_map":
        return logistic_map(
            r=float(p.get("r", 3.9)),
            x0=float(p.get("x0", 0.3)),
            keep=spec.length,
            total=spec.length + spec.effective_burn_in,
            label=spec.label,
        )
    if spec.kind == "arma":
        return arma_simulate(
            ar=list(p.get("ar", [])),
            ma=list(p.get("ma", [])),
            n=spec.length,
            seed=spec.seed,
            burn_in=spec.effective_burn_in,
            label=spec.label,
        )
    if spec.kind == "noise_overlay":
        base = p.get("base")
        if not isinstance(base, dict):
            raise DataError("noise_overlay params need a nested 'base' spec object")
        base_series = build_series(GeneratorSpec.from_dict(base))
        return add_noise(
            base_series, spec.seed,
            sd_multiplier=p.get("sd_multiplier"),
            sd_absolute=p.get("sd_absolute"),
            label=spec.label or base_series.label,
        )
    raise DataError(f"unknown generator kind: {spec.kind!r}")
