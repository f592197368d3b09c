"""Thresholds, verdicts, and the two baseline scores.

The primary score of a probe is its CD value under a fitted model; a probe
is declared an outlier exactly when that value strictly exceeds a threshold
tau.  Two calibration rules are offered:

* ``quantile(q)`` — nearest-rank q-quantile of the CD values of a
  calibration set (default q = 0.999 over the training data);
* ``multiple(alpha)`` — alpha times the basis dimension m, anchored on the
  fact that the in-sample mean CD value is exactly m.

For comparison experiments two classical baselines are provided: the
smallest weighted-L2 distance to any reference curve, and the pointwise
test, `PointwiseChristoffel`.  That test is the finite-dimensional case of
the same construction: a `ChristoffelModel` of order (d2, 2) fitted on the
reference point cloud {(t, g(t))}, whose Christoffel function the
infinite-dimensional one mimics.  It reports the fraction of time points
where the probe's pointwise Christoffel value drops below a user-chosen
delta.  The pointwise baseline is the method the functional score is
designed to beat: a probe whose graph never leaves the reference envelope
gets fraction ~ 0 no matter how abnormal the curve is as a function.

Reports are rendered from the array of CD values: `report_lines` builds
every CSV line column by column, and `verdicts`, of which `classify` is the
one-probe case, states the verdict rule once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import model as _model
from .basis import eval_monomial_matrix  # noqa: F401  (a binding perfbench's tracer wraps and checks)
from .errors import InputError, NumericalError
from .model import ChristoffelModel, TrajectoryDataset
from .projection import chebyshev_quadrature_nodes

DEFAULT_QUANTILE = 0.999
DEFAULT_MULTIPLE = 10.0

# Fixed column order of serialized reports.
REPORT_COLUMNS = ("id", "cd", "christoffel", "threshold", "verdict", "baseline_l2")


@dataclass(frozen=True)
class Threshold:
    """A calibrated decision level tau."""

    value: float
    method: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value <= 0.0:
            raise InputError(f"threshold must be finite and > 0, got {self.value!r}")


def verdicts(cds, threshold: float) -> list[str]:
    """The verdict of each CD value against tau: "Outlier" exactly when the
    value strictly exceeds tau, so a tie sits on the inlier side."""
    return ["Outlier" if out else "Inlier"
            for out in (np.asarray(cds, dtype=float) > threshold).tolist()]


_CSV_SPECIAL = re.compile('[,"\r\n]')


def csv_cell(text: str) -> str:
    """``text`` quoted as csv.writer quotes a cell that is not alone in its
    row (QUOTE_MINIMAL): the id cell of a report or of a data file."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def report_header() -> str:
    return ",".join(REPORT_COLUMNS)


def report_lines(ids, cds, threshold: float, baseline_l2=None) -> list[str]:
    """One CSV line per CD value, columns in `REPORT_COLUMNS` order.

    ``ids`` labels the rows (None for an unlabelled one), ``threshold`` is
    tau and ``baseline_l2`` an optional per-row sequence.  Each column is
    built from the arrays at once: the Christoffel values and the verdicts
    in one pass each, tau formatted once, and every float as its ``repr``.
    """
    cds = np.asarray(cds, dtype=float)
    tau = repr(float(threshold))
    l2 = ([""] * cds.size if baseline_l2 is None
          else list(map(repr, np.asarray(baseline_l2, dtype=float).tolist())))
    return [f"{csv_cell(i or '')},{cd!r},{ch!r},{tau},{verdict},{b}"
            for i, cd, ch, verdict, b in zip(ids, cds.tolist(), _model._reciprocal(cds).tolist(),
                                             verdicts(cds, threshold), l2, strict=True)]


def float_text(x: float) -> str:
    """The shortest text that reads back as ``x``: repr without a trailing ".0"."""
    return repr(float(x)).removesuffix(".0")


def nearest_rank(q: float, count: int) -> int:
    """The 1-based rank ceil(q * count) of the nearest-rank q-quantile, at least 1.

    The product is taken exactly with the decimal q (``repr(q)``): in
    floating point, 0.035 * 200 rounds to one ulp above 7 and would give
    rank 8.
    """
    num, den = Decimal(repr(float(q))).as_integer_ratio()
    return max(1, -(-num * count // den))


def nearest_rank_quantile(values, q: float) -> float:
    """Nearest-rank (no interpolation) q-quantile, q in (0, 1]."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise InputError("cannot take a quantile of an empty sample")
    if not (0.0 < q <= 1.0):
        raise InputError(f"quantile order must lie in (0, 1], got {q}")
    return float(vals[nearest_rank(q, vals.size) - 1])


def calibrate(
    model: ChristoffelModel,
    data: TrajectoryDataset | None = None,
    method: str = "quantile",
    param: float | None = None,
) -> Threshold:
    """Calibrate a decision threshold.

    ``method="quantile"`` uses the nearest-rank ``param``-quantile (default
    0.999) of the CD values over ``data`` — normally the training set.
    ``method="multiple"`` ignores ``data`` and returns ``param * m``
    (``param`` = alpha >= 1, default 10).
    """
    if method == "quantile":
        q = DEFAULT_QUANTILE if param is None else float(param)
        if data is None or len(data) == 0:
            raise InputError("quantile calibration needs a non-empty calibration set")
        cds = _model.cd_values(model, data.coefficient_matrix(model.n))
        return Threshold(value=nearest_rank_quantile(cds, q), method=f"quantile({float_text(q)})")
    if method == "multiple":
        alpha = DEFAULT_MULTIPLE if param is None else float(param)
        if alpha < 1.0:
            raise InputError(f"threshold multiple must be >= 1, got {alpha}")
        return Threshold(value=alpha * model.size, method=f"multiple({float_text(alpha)})")
    raise InputError(f"unknown threshold method {method!r} (want 'quantile' or 'multiple')")


def classify(model: ChristoffelModel, threshold: Threshold, c) -> str:
    """The verdict of one probe's coefficient vector against the threshold,
    "Outlier" or "Inlier": the one-row case of `verdicts` of its CD value."""
    return verdicts([_model.cd_value(model, c)], threshold.value)[0]


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

# Gauss-Chebyshev points of the two baselines' grids: the nearest-trajectory
# distance and the pointwise cloud.  Neither depends on the projection's M.
NEAREST_QUAD_POINTS = 256
POINTWISE_QUAD_POINTS = 129

# Probes per block in `nearest_distances`: it bounds the (block, N) product.
NEAREST_BLOCK_ROWS = 256


def nearest_distances(reference_values, probe_values) -> np.ndarray:
    """Smallest quadrature-weighted L2 distance from each probe to any reference.

    Both arguments hold curves evaluated on the same Gauss-Chebyshev grid,
    one per row, else `InputError`; the distance uses the probability weight,
    ||f - g||^2 ~ (1/M) sum_j (f(t_j) - g(t_j))^2.  All distances come
    from one product ||f||^2 - 2 f.g + ||g||^2 per block of probes; the
    references within its rounding error of the smallest are then measured
    exactly, so a probe that is a reference scores exactly 0.
    """
    G = np.asarray(reference_values, dtype=float)
    F = np.asarray(probe_values, dtype=float)
    if G.shape[0] == 0:
        raise InputError("nearest-trajectory score needs a non-empty database")
    M = G.shape[1]
    if F.ndim != 2 or F.shape[1] != M:
        raise InputError(f"probe values of shape {F.shape} are not rows on the "
                         f"references' {M} nodes")
    gg = np.einsum("ij,ij->i", G, G) / M
    out = np.empty(F.shape[0])
    # Curves too large to square overflow to an inf distance, which is their score.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, F.shape[0], NEAREST_BLOCK_ROWS):
            block = F[start:start + NEAREST_BLOCK_ROWS]
            ff = np.einsum("ij,ij->i", block, block) / M
            approx = ff[:, None] - (2.0 / M) * (block @ G.T) + gg
            slack = 1e-12 * (ff + gg.max())
            for i, row in enumerate(approx):
                # a row that overflowed to inf or nan keeps every reference a candidate
                near = np.flatnonzero(~(row > row.min() + slack[i]))
                out[start + i] = np.min(np.mean((G[near] - block[i]) ** 2, axis=1))
    out[np.isnan(out)] = np.inf  # a probe curve that overflowed to nan values
    return np.sqrt(out)


def nearest_trajectory_score(reference: TrajectoryDataset, probes: TrajectoryDataset) -> np.ndarray:
    """Smallest quadrature-weighted L2 distance from each probe to the database.

    Probes and references are all evaluated on the NEAREST_QUAD_POINTS
    Gauss-Chebyshev grid (`TrajectoryDataset.on_nodes`: curves by linear
    interpolation, so a probe that *is* a database curve scores exactly 0)
    and compared by `nearest_distances`; returns one distance per probe.
    """
    nodes = chebyshev_quadrature_nodes(NEAREST_QUAD_POINTS)
    return nearest_distances(reference.on_nodes(nodes), probes.on_nodes(nodes))


@dataclass(frozen=True)
class PointwiseChristoffel:
    """The empirical Christoffel function of the reference point cloud {(t, g(t))}.

    The finite-dimensional case of the same machinery: ``model`` is a
    `ChristoffelModel` of order (d2, 2) fitted by `model.fit` on one (t, x)
    row per (node, curve) pair, and each pointwise value is the reciprocal
    of one of its `cd_values`.  The cloud puts the curves on ``nodes``, the
    POINTWISE_QUAD_POINTS Gauss-Chebyshev nodes, as probes are put there
    (`TrajectoryDataset.on_nodes`), so no reference curve drops below
    ``cloud_floor``.
    """

    model: ChristoffelModel
    cloud_floor: float  # smallest pointwise Christoffel value on the cloud itself

    @property
    def nodes(self) -> np.ndarray:
        """The POINTWISE_QUAD_POINTS Gauss-Chebyshev nodes of the cloud and the probes."""
        return chebyshev_quadrature_nodes(POINTWISE_QUAD_POINTS)

    @classmethod
    def fit(cls, data: TrajectoryDataset, d2: int) -> "PointwiseChristoffel":
        if len(data) == 0:
            raise InputError("the pointwise baseline needs a non-empty database")
        nodes = chebyshev_quadrature_nodes(POINTWISE_QUAD_POINTS)
        G = data.on_nodes(nodes)  # (N, M) curve values
        pts = np.stack([np.tile(nodes, G.shape[0]), G.ravel()], axis=1)
        if not np.all(np.isfinite(pts)):
            raise NumericalError("the reference point cloud contains non-finite values")
        pts.setflags(write=False)  # handed to the dataset without a copy
        model = _model.fit(TrajectoryDataset(pts), d2, 2)
        floor = float(1.0 / _model.cd_values(model, pts).max())
        return cls(model=model, cloud_floor=floor)

    def profiles(self, values) -> np.ndarray:
        """Pointwise Christoffel values Lambda(t_j, f(t_j)) of many probes.

        ``values`` holds each probe's values on ``self.nodes``, one probe
        per row (a 1-D array is one probe); all probes share one
        `cd_values` call.  A non-finite value (an overflowed curve) gets 0:
        its CD value is inf.
        """
        F = np.atleast_2d(np.asarray(values, dtype=float))
        if F.ndim != 2 or F.shape[1] != self.nodes.size:
            raise InputError(f"probes on {F.shape[-1]} nodes cannot be profiled on "
                             f"the cloud's {self.nodes.size}")
        pts = np.stack([np.tile(self.nodes, F.shape[0]), F.ravel()], axis=1)
        finite = np.isfinite(F.ravel())
        cd = np.full(finite.size, np.inf)
        cd[finite] = _model.cd_values(self.model, pts[finite])
        return (1.0 / cd).reshape(F.shape)

    def fraction_below(self, probes: TrajectoryDataset, delta: float) -> np.ndarray:
        """Per probe, the fraction of nodes where its pointwise value drops
        under delta.  delta = 0 gives 0; the largest delta that flags no
        reference curve is `cloud_floor`."""
        if delta < 0.0 or not math.isfinite(delta):
            raise InputError(f"delta must be finite and >= 0, got {delta!r}")
        return np.mean(self.profiles(probes.on_nodes(self.nodes)) < delta, axis=1)
