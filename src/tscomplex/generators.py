"""Seeded synthetic-series generators for the experiment battery.

Randomness policy (pinned so results re-run bit-exactly in CI):

* bit source: numpy PCG64 seeded through SeedSequence;
* parallel replication derives independent streams with
  ``SeedSequence(entropy=seed, spawn_key=indices)``;
* uniform deviates: the generator's native 53-bit doubles in [0, 1);
* normal deviates: inverse normal CDF applied to grid midpoints
  ``(k + 0.5) / 2^53`` so the argument stays strictly inside (0, 1);
* exponential deviates: inverse CDF ``-log1p(-u) / rate``.

The inverse normal CDF is ``scipy.special.ndtri`` and the ARMA filter
``scipy.signal.lfilter``; each scipy submodule is imported in the function
that calls it, so uniform and exponential draws and the logistic map load
no scipy.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import DataError, NumericalError, Series, check_int, json_number, sample_sd

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

_TWO53 = float(1 << 53)


def derive_seed(seed: int | np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Independent child seed for replicate ``key`` of base ``seed``.

    The documented mixing function: SeedSequence(entropy=seed, spawn_key=key).
    An int seed must be a whole number (``core.check_int``), else a
    ValueError. A SeedSequence is returned as it is, and takes no key.
    """
    if isinstance(seed, np.random.SeedSequence):
        if key:
            raise TypeError("a SeedSequence seed takes no key")
        return seed
    return np.random.SeedSequence(entropy=check_int(seed, "seed"), spawn_key=tuple(key))


def derive_rng(seed: int | np.random.SeedSequence, *key: int) -> np.random.Generator:
    """PCG64 generator for ``seed``, optionally forked by integer indices."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *key)))


def _normal(rng: np.random.Generator, n: int) -> np.ndarray:
    from scipy import special

    u = (rng.integers(0, 1 << 53, size=n) + 0.5) / _TWO53
    return special.ndtri(u)


def _check_size(length: int | None, burn_in: int | None) -> tuple[int | None, int | None]:
    """A given length and burn_in as ints: ValueError unless each is a whole
    number, DataError unless the length is >= 1 and the burn_in >= 0."""
    length = None if length is None else check_int(length, "length")
    burn_in = None if burn_in is None else check_int(burn_in, "burn_in")
    if length is not None and length < 1:
        raise DataError(f"length must be >= 1, got {length}")
    if burn_in is not None and burn_in < 0:
        raise DataError(f"burn_in must be >= 0, got {burn_in}")
    return length, burn_in


# the n draws of each distribution from ``rng``; only the exponential reads rate
_DRAWS = {
    "uniform": lambda rng, n, rate: rng.random(n),
    "normal": lambda rng, n, rate: _normal(rng, n),
    "exponential": lambda rng, n, rate: -np.log1p(-rng.random(n)) / rate,
}


def generate_iid(
    dist: str,
    n: int,
    seed: int | np.random.SeedSequence,
    *,
    rate: float = 1.0,
    burn_in: int = 0,
    label: str | None = None,
) -> Series:
    """Independent draws from Uniform(0,1), Normal(0,1) or Exponential(rate).

    Deterministic in (dist, n, seed): the same inputs always give the
    bit-identical series. n, burn_in and an int seed must be whole numbers.
    """
    n, burn_in = _check_size(n, burn_in)
    if rate <= 0:
        raise DataError(f"rate must be positive, got {rate}")
    if dist not in _DRAWS:
        raise DataError(f"unknown distribution {dist!r}; choose from {', '.join(_DRAWS)}")
    with np.errstate(over="ignore"):  # Series refuses the non-finite draw
        x = _DRAWS[dist](derive_rng(seed), n + burn_in, rate)
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
    chaotic orbits depend on it bit-for-bit. ``keep`` and ``total`` must be
    whole numbers.
    """
    keep, total = check_int(keep, "keep"), check_int(total, "total")
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
    on or inside the unit circle). n, burn_in and an int seed must be whole
    numbers.
    """
    from scipy import signal

    n, burn_in = _check_size(n, burn_in)
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


def _check_noise_sizes(sd_multiplier: float | None, sd_absolute: float | None) -> None:
    if (sd_multiplier is None) == (sd_absolute is None):
        raise DataError("specify exactly one of sd_multiplier / sd_absolute")
    if sd_multiplier is not None and sd_multiplier < 0:
        raise DataError(f"sd multiplier must be >= 0, got {sd_multiplier}")
    if sd_absolute is not None and sd_absolute < 0:
        raise DataError(f"noise sd must be >= 0, got {sd_absolute}")


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
    _check_noise_sizes(sd_multiplier, sd_absolute)
    sigma = float(sd_absolute) if sd_multiplier is None else sd_multiplier * sample_sd(series)
    if sigma == 0.0:
        return Series(series.values, label or series.label)
    rng = derive_rng(seed)
    with np.errstate(over="ignore"):  # Series refuses the non-finite sum
        noisy = series.values + sigma * _normal(rng, len(series))
    return Series(noisy, label or series.label)


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible description of a synthetic series.

    Parsed from a JSON object with fields kind, params, length, burn_in,
    seed (and an optional label). ``params`` may name only the parameters
    of the kind's row in ``_KINDS``; a parameter, a length or a burn_in
    left out takes the generator's default. A noise_overlay takes its length
    and burn-in from its base: it refuses a burn_in and a length other than
    the base's.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    length: int | None = None
    burn_in: int | None = None
    seed: int = 0
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise DataError(f"unknown generator kind: {self.kind!r}")
        _check_size(self.length, self.burn_in)
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.params, dict):
            raise DataError(f"params must be an object, got {self.params!r}")
        takes = _KINDS[self.kind].params
        extra = [name for name in self.params if name not in takes]
        if extra:
            raise DataError(f"unknown {self.kind} param {extra[0]!r} "
                            f"(takes: {', '.join(takes) or 'none'})")
        if self.label is not None and not isinstance(self.label, str):
            raise DataError(f"label must be a string, got {self.label!r}")

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "GeneratorSpec":
        if "kind" not in d:
            raise DataError("generator spec missing field 'kind'")
        known = [f.name for f in fields(cls)]
        extra = [name for name in d if name not in known]
        if extra:
            raise DataError(f"unknown generator spec field {extra[0]!r} "
                            f"(fields: {', '.join(known)})")
        burn = d.get("burn_in")
        return cls(
            kind=d["kind"],
            params=d.get("params", {}),
            length=json_number(d["length"], "length", int) if "length" in d else None,
            burn_in=None if burn is None else json_number(burn, "burn_in", int),
            seed=json_number(d.get("seed", 0), "seed", int),
            label=d.get("label"),
        )

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid generator spec JSON: {exc}") from exc
        except RecursionError:
            raise DataError("generator spec JSON nested too deeply") from None
        if not isinstance(data, dict):
            raise DataError("generator spec JSON must be an object")
        return cls.from_dict(data)


def _length(spec: GeneratorSpec) -> int:
    """The spec's length, or the default of 1000 points."""
    return 1000 if spec.length is None else spec.length


def _given_burn_in(spec: GeneratorSpec) -> dict[str, int]:
    """The spec's burn_in as a keyword, or none, so that the generator's default holds."""
    return {} if spec.burn_in is None else {"burn_in": spec.burn_in}


def _iid(spec: GeneratorSpec) -> Series:
    rate = {name: json_number(v, name) for name, v in spec.params.items()}
    return generate_iid(spec.kind, _length(spec), spec.seed, **rate,
                        **_given_burn_in(spec), label=spec.label)


def _logistic_map(spec: GeneratorSpec) -> Series:
    p = spec.params
    return logistic_map(json_number(p.get("r", 3.9), "r"), json_number(p.get("x0", 0.3), "x0"),
                        keep=_length(spec), total=_length(spec) + (spec.burn_in or 0),
                        label=spec.label)


def _arma(spec: GeneratorSpec) -> Series:
    coefficients = {}
    for name in ("ar", "ma"):
        value = spec.params.get(name, [])
        if not isinstance(value, list):
            raise DataError(f"{name} must be a list of numbers, got {value!r}")
        coefficients[name] = [json_number(v, name) for v in value]
    return arma_simulate(**coefficients, n=_length(spec), seed=spec.seed,
                         **_given_burn_in(spec), label=spec.label)


class _Kind(NamedTuple):
    build: Callable[[GeneratorSpec], Series] | None  # None: build_series adds the overlay
    params: tuple[str, ...]  # the names a spec's params may use


_KINDS = {
    "uniform": _Kind(_iid, ()),
    "normal": _Kind(_iid, ()),
    "exponential": _Kind(_iid, ("rate",)),
    "logistic_map": _Kind(_logistic_map, ("r", "x0")),
    "arma": _Kind(_arma, ("ar", "ma")),
    "noise_overlay": _Kind(None, ("base", "sd_multiplier", "sd_absolute")),
}


def build_series(spec: GeneratorSpec) -> Series:
    """Materialize a GeneratorSpec into a Series, walking a noise_overlay chain
    in a loop and checking every link before the first draw."""
    links = []  # each noise_overlay and its noise sizes, outermost first
    while spec.kind == "noise_overlay":
        p = spec.params
        if not isinstance(p.get("base"), dict):
            raise DataError("noise_overlay params need a nested 'base' spec object")
        if spec.burn_in is not None:
            raise DataError(f"burn_in must be left to the base for noise_overlay, "
                            f"got {spec.burn_in}")
        sizes = {name: None if p.get(name) is None else json_number(p[name], name)
                 for name in ("sd_multiplier", "sd_absolute")}
        _check_noise_sizes(**sizes)
        links.append((spec, sizes))
        spec = GeneratorSpec.from_dict(p["base"])
    for link, _ in reversed(links):
        if link.length not in (None, _length(spec)):
            raise DataError(f"length must equal the base's ({_length(spec)}) for noise_overlay, "
                            f"got {link.length}")
    series = _KINDS[spec.kind].build(spec)
    for link, sizes in reversed(links):
        series = add_noise(series, link.seed, **sizes, label=link.label or series.label)
    return series
