"""Output checks: digests recorded for the default seed, and, for any seed,
a seeded sample of report cells recomputed by the independent oracles in
``tests/oracles.py`` (explicit template-pair enumeration for sample
entropy, python's sorted() for ordinal patterns).

A check returns the names of the ops whose output it found wrong, with a
message for each.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tscomplex.core import NumericalError, Series
from tscomplex.entropy import SampEnParams, sample_entropy
from tscomplex.experiments import logistic_recipe
from tscomplex.generators import (
    GeneratorSpec,
    add_noise,
    arma_simulate,
    build_series,
    derive_seed,
    generate_iid,
)
from tscomplex.reference import ARMA_PROCESSES, L35N

from workloads import Workload

DIGESTS = Path(__file__).resolve().parent / "digests.json"
SCALES = (1, 2, 3, 4, 5, 10)
M = 2           # sample-entropy embedding length (program default)
R_FACTOR = 0.2  # sample-entropy tolerance factor (program default)
PERMEN_N = 5    # permutation-entropy tuple size (program default)
CELL_STREAM = 0xCE11  # keeps the cell sample's random stream apart from the inputs'


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("tscomplex_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_rows(text: str) -> list[dict]:
    """Rows of the JSON report inside an op's output: the part from the
    first line that opens the array (``reproduce`` prints summary lines
    before it). An output without a report has no rows."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.rstrip("\n") == "[":
            return json.loads("".join(lines[i:]))
    return []


def check_digests(outputs: dict[str, str], expected: dict[str, dict],
                  default_seed: bool) -> dict[str, str]:
    """At the default seed every output must match its recorded digest; at
    any seed, its report must have the recorded number of rows."""
    bad = {}
    for op, text in outputs.items():
        want = expected.get(op)
        if want is None:
            bad[op] = "no recorded digest"
        elif default_seed and sha256(text) != want["sha256"]:
            bad[op] = "output differs from the digest recorded for the default seed"
        elif len(report_rows(text)) != want["rows"]:
            bad[op] = f"report has {len(report_rows(text))} rows, expected {want['rows']}"
    return bad


# -- oracle cells ---------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One report cell to recompute: the op that printed it, its row key,
    the series the program scored, and the sample-entropy tolerance."""

    op: str
    label: str
    scale: int
    metric: str
    values: np.ndarray
    r: float | None = None


def coarse(x: np.ndarray, scale: int, partial: str) -> np.ndarray:
    """Block means of ``scale`` samples; ``partial="mean"`` keeps the
    remainder as one short final block."""
    if scale == 1:
        return x
    nb = x.size // scale
    out = x[:nb * scale].reshape(nb, scale).mean(axis=1)
    if partial == "mean" and x.size % scale:
        out = np.append(out, x[nb * scale:].mean())
    return out


def _sd_tolerance(x: np.ndarray) -> float:
    return R_FACTOR * float(np.std(x, ddof=1))


def _swept(op, label, x, partial, rng, fixed_r=None) -> list[Cell]:
    """A sample-entropy and a permutation-entropy cell at random scales."""
    s_se, s_pe = (int(s) for s in rng.choice(SCALES, size=2))
    g = coarse(x, s_se, partial)
    r = fixed_r if fixed_r is not None else _sd_tolerance(g)
    return [Cell(op, label, s_se, "sampen", g, r),
            Cell(op, label, s_pe, "permen", coarse(x, s_pe, partial))]


def sample_cells(workload: Workload, rng: np.random.Generator | None = None) -> list[Cell]:
    """A sample of cells, drawn from the workload's seed unless ``rng`` is
    given, whose inputs can be rebuilt from the workload's recipe: sample
    entropy and permutation entropy per op for the file sweeps, and per
    series for the tables' single-draw sweeps."""
    if rng is None:
        rng = np.random.default_rng([workload.seed, CELL_STREAM])
    cells: list[Cell] = []
    if workload.name == "battery":
        s = workload.inputs["table1"]["seed"]
        sweeps = [("table3_logistic", "logistic r=3.7", logistic_recipe(3.7).values),
                  ("table3_logistic", L35N,
                   add_noise(logistic_recipe(3.5, label=L35N), derive_seed(s, 3, 0),
                             sd_absolute=0.1).values)]
        for di, dist in enumerate(("uniform", "normal", "exponential")):
            sweeps.append(("table1", dist,
                           generate_iid(dist, 1000, derive_seed(s, di, 0)).values))
        for pi, (name, ar, ma) in enumerate(ARMA_PROCESSES):
            sweeps.append(("arma_table5", name,
                           arma_simulate(ar, ma, 1000, derive_seed(s, pi, 0)).values))
        for i in rng.choice(len(sweeps), size=3, replace=False):
            op, label, x = sweeps[i]
            # table1's scale-1 cells are replication means, not one draw
            for cell in _swept(op, label, x, "mean", rng):
                if not (op == "table1" and cell.scale == 1):
                    cells.append(cell)
    elif workload.name in ("mse_rr", "mse_periodic"):
        for op, inp in workload.inputs.items():
            text = Path(inp["path"]).read_text(encoding="utf-8")
            x = np.array([float(line) for line in text.splitlines() if line.strip()])
            fixed = _sd_tolerance(x) if inp["fixed_r"] else None
            cells += _swept(op, Path(inp["path"]).stem, x, "drop", rng, fixed)
    elif workload.name == "scan":
        ops = sorted(workload.inputs)
        for i in rng.choice(len(ops), size=min(2, len(ops)), replace=False):
            spec = GeneratorSpec.from_json(workload.inputs[ops[i]]["spec"])
            x = build_series(spec).values
            scale = int(rng.choice(SCALES))
            cells.append(Cell(ops[i], spec.label, scale, "permen", coarse(x, scale, "drop")))
    return cells


def check_cells(cells: list[Cell], outputs: dict[str, str], oracles) -> dict[str, str]:
    """Recompute each cell with the oracles and compare with the program:
    sample-entropy A/B counts exactly, report values to 1e-9."""
    bad = {}
    rows = {op: {(r["label"], r["scale"], r["metric"]): r for r in report_rows(text)}
            for op, text in outputs.items()}
    for cell in cells:
        where = f"{cell.label} scale {cell.scale} {cell.metric}"
        row = rows.get(cell.op, {}).get((cell.label, cell.scale, cell.metric))
        if row is None:
            bad[cell.op] = f"{where}: missing from the report"
            continue
        if cell.metric == "sampen":
            a, b = oracles.sampen_pairs_rowwise(cell.values, M, cell.r)
            expected = -math.log(a / b) + 0.0 if a and b else None
            try:
                res = sample_entropy(Series(cell.values), SampEnParams(M, cell.r, "absolute"))
                counts = (res.a_count, res.b_count)
            except NumericalError as exc:
                counts = (getattr(exc, "a_count", None), getattr(exc, "b_count", None))
            if counts != (a, b):
                bad[cell.op] = f"{where}: A/B {counts}, oracle {(a, b)}"
                continue
        else:
            expected = oracles.permen_direct(cell.values, PERMEN_N)
        got = row["value"]
        if (got is None) != (expected is None) or (
                got is not None and abs(got - expected) > 1e-9):
            bad[cell.op] = f"{where}: report {got}, oracle {expected}"
    return bad


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))
