"""Reference score tables for the reproduction harness.

Each entry records the published value of one table cell, and how it may
be checked:

* ``exact``  -- deterministic given the recipe; |observed - ref| <= tol,
  the metric's tolerance in ``TOL``
* ``band``   -- stochastic; ref is indicative, checked against the interval
  ref +/- tol, the cell's own half-width
* ``info``   -- reported for comparison only, never pass/fail (known to
  come from a pipeline step this package deliberately does not replicate,
  or from an unseeded random draw); an info cell carries no tolerance, so
  its ``tol`` is NaN

The runs-test cells of the multi-scale tables are ``info``: the source
pipeline fed the runs test a differently down-sampled series than the
other metrics (stride decimation rather than block means), so block-mean
sweeps cannot and should not match them beyond scale 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

from .metrics import DEFAULT_SCALES

CheckKind = Literal["exact", "band", "info"]

# shared tolerances by metric (exact cells)
TOL = {"sampen": 1e-3, "permen": 1e-3, "permtest": 0.5, "runstest": 0.05}
_DEEP = DEFAULT_SCALES[1:]  # the scales of a row that starts at scale 2


@dataclass(frozen=True)
class RefCell:
    label: str
    scale: int
    metric: str
    value: float
    tol: float = math.nan  # an info cell has none
    kind: CheckKind = "exact"
    note: str = ""


def _row(label: str, metric: str, values, kind: CheckKind = "exact", note="",
         scales: Sequence[int] = DEFAULT_SCALES) -> list[RefCell]:
    tol = TOL[metric] if kind == "exact" else math.nan
    return [RefCell(label, s, metric, v, tol, kind, note) for s, v in zip(scales, values)]


# ---------------------------------------------------------------------------
# logistic-map score battery (table2): x0=0.3, 5000 generated, last 1000 kept
# ---------------------------------------------------------------------------
L35, L37, L39 = "logistic r=3.5", "logistic r=3.7", "logistic r=3.9"
L35N = "logistic r=3.5 + N(0,0.1)"

TABLE2: list[RefCell] = [
    RefCell(L35, 1, "sampen", 0.0000, TOL["sampen"]),
    RefCell(L35, 1, "permen", 0.2896, TOL["permen"]),
    RefCell(L35, 1, "permtest", 5799.6520, TOL["permtest"]),
    RefCell(L35, 1, "runstest", 31.5753, TOL["runstest"]),
    RefCell(L37, 1, "sampen", 0.3479, TOL["sampen"]),
    RefCell(L37, 1, "permen", 0.4978, TOL["permen"]),
    RefCell(L37, 1, "permtest", 2781.8331, TOL["permtest"]),
    RefCell(L37, 1, "runstest", 26.9561, TOL["runstest"]),
    # the r=3.9 sampen and permtest reference cells are not reproducible from
    # any single orbit recipe (see the sibling cells' recipe match at r=3.7);
    # they are still asserted at the stated tolerance by the acceptance gate
    RefCell(L39, 1, "sampen", 0.4883, TOL["sampen"],
            note="reference cell from a different orbit realization"),
    RefCell(L39, 1, "permen", 0.6185, TOL["permen"]),
    RefCell(L39, 1, "permtest", 1200.3280, TOL["permtest"],
            note="reference cell from a different orbit realization"),
    RefCell(L39, 1, "runstest", 14.3252, TOL["runstest"]),
    # noisy column: unseeded in the source, validated as bands across seeds
    RefCell(L35N, 1, "sampen", 1.4431, 0.25, "band"),
    RefCell(L35N, 1, "permen", 0.6781, 0.08, "band"),
    RefCell(L35N, 1, "permtest", 936.3438, kind="info"),
    RefCell(L35N, 1, "runstest", 28.2849, kind="info"),
]

# ---------------------------------------------------------------------------
# logistic-map multi-scale battery (table3_logistic), r=3.7 rows deterministic
# ---------------------------------------------------------------------------
TABLE3_LOGISTIC: list[RefCell] = (
    _row(L37, "sampen", (0.3479, 0.7899, 1.0515, 1.3852, 1.2181, 2.1832))
    + _row(L37, "permen", (0.4978, 0.8134, 0.8494, 0.9134, 0.8667, 0.8239))
    + _row(L37, "permtest", (2781.8331, 262.3685, 181.2398, 127.5694, 133.9598, 123.9256))
    + [RefCell(L37, 1, "runstest", 26.9561, TOL["runstest"])]
    + _row(L37, "runstest", (-17.2798, 11.2888, -9.1257, 6.2382, 0.2010), kind="info",
           note="source runs-test branch decimated instead of averaging", scales=_DEEP)
    + _row(L35N, "sampen", (1.4431, 2.2351, 1.8983, 2.3735, 2.2532, 2.2824), kind="info")
    + _row(L35N, "permen", (0.6781, 0.9561, 0.7941, 0.9449, 0.8389, 0.8578), kind="info")
    + _row(L35N, "permtest", (936.3438, 103.9875, 246.6824, 103.5751, 169.9490, 123.9256),
           kind="info")
    + _row(L35N, "runstest", (28.2849, 2.1488, 10.3024, -1.3942, 4.2533, -0.4020), kind="info")
)

# ---------------------------------------------------------------------------
# iid random battery (table1): scale-1 cells are 30-replication means; the
# deeper scales were single unseeded draws, so everything is band/info
# ---------------------------------------------------------------------------
UNIFORM, NORMAL, EXPONENTIAL = "uniform", "normal", "exponential"

TABLE1_MEANS: list[RefCell] = [
    RefCell(UNIFORM, 1, "sampen", 2.238808, 0.15, "band"),
    RefCell(UNIFORM, 1, "permen", 0.987112, 0.01, "band"),
    RefCell(NORMAL, 1, "sampen", 2.168564, 0.15, "band"),
    RefCell(NORMAL, 1, "permen", 0.988476, 0.01, "band"),
    RefCell(EXPONENTIAL, 1, "sampen", 1.669779, 0.15, "band"),
    RefCell(EXPONENTIAL, 1, "permen", 0.985410, 0.01, "band"),
]

# acceptance bands for the replication means
TABLE1_BANDS = {
    (UNIFORM, "sampen"): (2.1, 2.4),
    (NORMAL, "permen"): (0.975, 0.995),
    (EXPONENTIAL, "sampen"): (1.5, 1.8),
}

# ---------------------------------------------------------------------------
# Santa Fe laser battery (santafe): deterministic given the data file
# ---------------------------------------------------------------------------
SF_CLEAN = "santafe clean"
SF_NOISE = {0.1: "santafe + 0.1 sd noise", 0.2: "santafe + 0.2 sd noise",
            1.0: "santafe + 1 sd noise"}

SANTAFE_SCORES: list[RefCell] = [
    RefCell(SF_CLEAN, 1, "sampen", 0.7570, TOL["sampen"]),
    RefCell(SF_CLEAN, 1, "permen", 0.5809, TOL["permen"]),
    RefCell(SF_CLEAN, 1, "permtest", 1562.7060, TOL["permtest"]),
    RefCell(SF_CLEAN, 1, "runstest", -15.3711, TOL["runstest"]),
    RefCell(SF_NOISE[0.1], 1, "sampen", 1.0441, kind="info"),
    RefCell(SF_NOISE[0.2], 1, "sampen", 1.3147, kind="info"),
    RefCell(SF_NOISE[1.0], 1, "sampen", 2.1233, kind="info"),
]

# the clean series from scale 2 on; its scale-1 cells are in SANTAFE_SCORES
SANTAFE_MSE: list[RefCell] = (
    _row(SF_CLEAN, "sampen", (0.5752, 0.6507, 0.6111, 0.6406, 1.4328), scales=_DEEP)
    + _row(SF_CLEAN, "permen", (0.6306, 0.6316, 0.5927, 0.7528, 0.7734), scales=_DEEP)
    + _row(SF_CLEAN, "permtest", (622.3253, 610.2527, 540.2703, 181.9454, 183.8897),
           scales=_DEEP)
    + _row(SF_CLEAN, "runstest", (1.7011, 10.5226, 11.6606, 2.4102, 3.4173), kind="info",
           note="source runs-test branch decimated instead of averaging", scales=_DEEP)
)

# ---------------------------------------------------------------------------
# ARMA battery (arma_table4 / arma_table5): all cells stochastic
# ---------------------------------------------------------------------------
ARMA22, ARMA11, AR1 = "ARMA(2,2)", "ARMA(1,1)", "AR(1)"

ARMA_PROCESSES = (
    (ARMA22, (0.9, -0.2), (-0.7, 0.1)),
    (ARMA11, (0.7,), (-0.2,)),
    (AR1, (0.9,), ()),
)

ARMA_TABLE4: list[RefCell] = [
    RefCell(ARMA22, 1, "sampen", 2.2286, kind="info"),
    RefCell(ARMA22, 1, "permen", 0.9833, kind="info"),
    RefCell(ARMA22, 1, "permtest", 126.3924, kind="info"),
    RefCell(ARMA22, 1, "runstest", -3.9865, kind="info"),
    RefCell(ARMA11, 1, "sampen", 2.0238, kind="info"),
    RefCell(ARMA11, 1, "permen", 0.9795, kind="info"),
    RefCell(ARMA11, 1, "permtest", 147.9911, kind="info"),
    RefCell(ARMA11, 1, "runstest", -10.9470, kind="info"),
    RefCell(AR1, 1, "sampen", 1.4650, kind="info"),
    RefCell(AR1, 1, "permen", 0.9173, kind="info"),
    RefCell(AR1, 1, "permtest", 236.7858, kind="info"),
    RefCell(AR1, 1, "runstest", -21.8939, kind="info"),
]

ARMA_TABLE5: list[RefCell] = (
    _row(ARMA22, "sampen", (2.1533, 2.2500, 2.0808, 2.0424, 2.1864, 1.7383), kind="info")
    + _row(ARMA22, "permen", (0.9846, 0.9758, 0.9559, 0.9497, 0.9235, 0.8329), kind="info")
    + _row(ARMA11, "sampen", (2.0238, 2.0806, 2.1228, 2.2407, 2.0680, 2.8134), kind="info")
    + _row(ARMA11, "permen", (0.9795, 0.9608, 0.9486, 0.9348, 0.9217, 0.8586), kind="info")
    + _row(AR1, "sampen", (1.4650, 1.6371, 1.7735, 1.8615, 1.8197, 2.7300), kind="info")
    + _row(AR1, "permen", (0.9173, 0.8782, 0.8527, 0.8691, 0.8503, 0.8322), kind="info")
    + _row(AR1, "runstest", (-21.8939, -15.2205, -10.8504, -7.6048, -6.6636, -1.8092),
           kind="info")
)
