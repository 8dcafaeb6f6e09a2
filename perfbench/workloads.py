"""The benchmark's workloads: inputs made from the seed, and the ops that
drive the program through its command line, ``tscomplex.cli.main``.

Why these four (measured shares are in DESIGN.md):

* battery -- the paper-reproduction use case: five reference tables at
  default replications, many short series (N <= 1000), so the per-call
  overhead of experiments/metrics counts next to sample entropy.
* mse_rr -- the long-recording use case: file -> read -> coarse-grain ->
  four metrics -> report, on quantized, tie-heavy RR-like series with
  sparse sample-entropy matches.
* mse_periodic -- the same path with the fixed (absolute) tolerance and
  dense matches, so a neighbour-search kernel that only wins on sparse
  matches shows as a regression here.
* scan -- many long generated series scored without sample entropy, plus
  one plot per pass: generators, ordinal patterns, runs test,
  coarse-graining, report and plots do the work. A sample-entropy change
  predicts no change here.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tscomplex.core import Series
from tscomplex.experiments import DEFAULT_SEED as REPRODUCE_SEED
from tscomplex.generators import (
    add_noise,
    arma_simulate,
    derive_rng,
    derive_seed,
    logistic_map,
)
from tscomplex.reference import ARMA_PROCESSES
from tscomplex.seriesio import write_series

NAMES = ("battery", "mse_rr", "mse_periodic", "scan")

TABLES = ("table1", "table2", "table3_logistic", "arma_table4", "arma_table5")
ARMA22 = ARMA_PROCESSES[0]  # ("ARMA(2,2)", ar, ma)


@dataclass(frozen=True)
class Size:
    replications: int | None  # battery; None = the tables' defaults
    mse_length: int
    scan_length: int
    scan_per_kind: int


FULL = Size(replications=None, mse_length=8192, scan_length=65536, scan_per_kind=8)
TINY = Size(replications=2, mse_length=600, scan_length=2048, scan_per_kind=1)
MSE_FILES = 2


@dataclass(frozen=True)
class Op:
    """One command-line call. Its output is what it prints plus, when
    ``out_path`` is set, the file it writes."""

    name: str
    argv: tuple[str, ...]
    out_path: Path | None = None


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    # what the oracle check needs to rebuild an op's inputs, per op name
    inputs: dict[str, dict] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Digest of everything the seed determines: the op arguments and
        the input files' contents."""
        h = hashlib.sha256()
        for op in self.ops:
            h.update(json.dumps(op.argv).encode())
        for name in sorted(self.inputs):
            path = self.inputs[name].get("path")
            if path is not None:
                h.update(Path(path).read_bytes())
        return h.hexdigest()


def build(name: str, seed: int, workdir: Path, size: Size = FULL) -> Workload:
    """Generate the workload's inputs for ``seed`` (writing input files into
    ``workdir``) and return its ops. Same seed, same inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "battery":
        return _battery(seed, size)
    if name == "mse_rr":
        return _mse(name, seed, workdir, size, _rr_series, fixed_r=False)
    if name == "mse_periodic":
        return _mse(name, seed, workdir, size, _periodic_series, fixed_r=True)
    if name == "scan":
        return _scan(seed, workdir, size)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _battery(seed: int, size: Size) -> Workload:
    s = REPRODUCE_SEED + seed  # seed 0 is the program's own default
    extra = () if size.replications is None else ("--replications", str(size.replications))
    ops = [Op(t, ("reproduce", t, "--seed", str(s), "--print-table", "--format", "json") + extra)
           for t in TABLES]
    return Workload("battery", seed, ops, {t: {"seed": s} for t in TABLES})


def _rr_series(seed: int, i: int, n: int) -> Series:
    """RR-interval-like: an ARMA(2,2) path scaled to 0.8 s +/- 50 ms and
    rounded to the 1/128 s sampling grid (quantized, many ties)."""
    _, ar, ma = ARMA22
    z = arma_simulate(ar, ma, n, derive_seed(seed, 1, i)).values
    x = 0.8 + 0.05 * (z - z.mean()) / z.std(ddof=1)
    return Series(np.round(x * 128.0) / 128.0)


def _periodic_series(seed: int, i: int, n: int) -> Series:
    """Logistic r=3.5 (settled on its period-4 orbit) plus Gaussian noise of
    0.05 times its SD: dense sample-entropy matches."""
    x0 = 0.2 + 0.6 * float(derive_rng(seed, 2, i).random())
    base = logistic_map(3.5, x0, keep=n, total=n + 1000)
    return add_noise(base, derive_seed(seed, 2, i, 1), sd_multiplier=0.05)


def _mse(name, seed, workdir, size, make, fixed_r) -> Workload:
    ops, inputs = [], {}
    stem = "rr" if name == "mse_rr" else "periodic"
    for i in range(MSE_FILES):
        path = workdir / f"{stem}_{i}.txt"
        write_series(make(seed, i, size.mse_length), path)
        argv = ("mse", str(path), "--format", "json") + (("--fixed-r",) if fixed_r else ())
        op = Op(f"{stem}_{i}", argv)
        ops.append(op)
        inputs[op.name] = {"path": str(path), "fixed_r": fixed_r}
    return Workload(name, seed, ops, inputs)


def _scan_specs(seed: int, size: Size) -> list[dict]:
    rng = derive_rng(seed, 3)
    _, ar, ma = ARMA22
    specs = []
    for kind in ("normal", "arma", "logistic_map"):
        for j in range(size.scan_per_kind):
            spec = {"kind": kind, "length": size.scan_length,
                    "seed": int(rng.integers(0, 2 ** 31)), "label": f"{kind}_{j}"}
            if kind == "arma":
                spec["params"] = {"ar": list(ar), "ma": list(ma)}
            elif kind == "logistic_map":
                spec["params"] = {"r": 3.9, "x0": round(float(rng.uniform(0.05, 0.95)), 12)}
                spec["burn_in"] = 1000
            specs.append(spec)
    return specs


def _scan(seed: int, workdir: Path, size: Size) -> Workload:
    ops, inputs = [], {}
    for i, spec in enumerate(_scan_specs(seed, size)):
        variant = ("above_below_median", "up_down")[i % 2]
        out = workdir / f"scan_{i:02d}.json"
        text = json.dumps(spec, sort_keys=True)
        argv = ("mse", "--spec", text, "--metric", "permen", "--metric", "permtest",
                "--metric", "runstest", "--runs-variant", variant,
                "--format", "json", "--out", str(out))
        op = Op(f"spec_{i:02d}", argv, out)
        ops.append(op)
        inputs[op.name] = {"spec": text}
    svg = workdir / "scan_plot.svg"
    ops.append(Op("plot", ("plot", str(ops[-1].out_path), "--kind", "line_by_scale",
                           "--out", str(svg)), svg))
    return Workload("scan", seed, ops, inputs)
