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
from .projection import (
    SampledTrajectory,
    chebyshev_quadrature_nodes,
    coeff_array,
    reconstruct_batch,
    unit_times,
    values_on_nodes,
)

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


@dataclass(frozen=True)
class ScoreReport:
    """Scores for one probe trajectory; its Christoffel value and verdict
    follow from ``cd`` and ``threshold``."""

    id: str | None
    cd: float
    threshold: float
    baseline_l2: float | None = None

    @property
    def christoffel(self) -> float:
        return _model._reciprocal(self.cd)

    @property
    def verdict(self) -> str:
        return "Outlier" if self.cd > self.threshold else "Inlier"


_CSV_SPECIAL = re.compile('[,"\r\n]')


def csv_cell(text: str) -> str:
    """``text`` quoted as csv.writer quotes a cell that is not alone in its
    row (QUOTE_MINIMAL): the id cell of a report or of a data file."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def report_header() -> str:
    return ",".join(REPORT_COLUMNS)


def report_line(report: ScoreReport) -> str:
    """One report as a CSV line, columns in `REPORT_COLUMNS` order."""
    fields = [
        csv_cell(report.id or ""),
        repr(report.cd),
        repr(report.christoffel),
        repr(report.threshold),
        report.verdict,
        "" if report.baseline_l2 is None else repr(report.baseline_l2),
    ]
    return ",".join(fields)


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


def classify(
    model: ChristoffelModel,
    threshold: Threshold,
    c,
    baseline_l2: float | None = None,
) -> ScoreReport:
    """Score one probe and compare against the threshold.

    Ties sit on the inlier side: a probe is an outlier only when its CD
    value strictly exceeds tau.  A one-row call of `classify_batch`; the
    report's id is None (pass ``ids`` to `classify_batch` to label rows).
    """
    return classify_batch(
        model, threshold, coeff_array(c)[None, :],
        baseline_l2=None if baseline_l2 is None else [baseline_l2],
    )[0]


def classify_batch(
    model: ChristoffelModel,
    threshold: Threshold,
    coeffs,
    ids=None,
    baseline_l2=None,
) -> list[ScoreReport]:
    """Score the rows of a (K, >= n) coefficient matrix with one `cd_values` call.

    ``ids`` and ``baseline_l2`` are optional per-row sequences carried
    into the reports.
    """
    cds = _model.cd_values(model, coeffs)
    reports = []
    for i, cd in enumerate(cds.tolist()):
        reports.append(ScoreReport(
            id=None if ids is None else ids[i], cd=cd, threshold=threshold.value,
            baseline_l2=None if baseline_l2 is None else float(baseline_l2[i]),
        ))
    return reports


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

# Gauss-Chebyshev points of the two baselines' grids: the nearest-trajectory
# distance and the pointwise cloud.  Neither depends on the projection's M.
NEAREST_QUAD_POINTS = 256
POINTWISE_QUAD_POINTS = 129

# Probes per block in `nearest_distances`: it bounds the (block, N) product.
NEAREST_BLOCK_ROWS = 256


def _probe_values(f, nodes: np.ndarray) -> np.ndarray:
    """One probe at unit-interval nodes, (1, M): a curve by linear
    interpolation, a coefficient vector as a truncated series."""
    if isinstance(f, SampledTrajectory):
        if not np.isfinite(f.values).all():
            raise InputError(f"trajectory values contain non-finite entries (id={f.id!r})")
        return values_on_nodes(unit_times(f.times, f.domain), f.values[:, None], nodes)
    return reconstruct_batch(coeff_array(f)[None, :], nodes)


def nearest_distances(reference_values, probe_values) -> np.ndarray:
    """Smallest quadrature-weighted L2 distance from each probe to any reference.

    Both arguments hold curves evaluated on the same Gauss-Chebyshev grid,
    one per row; the distance uses the probability weight,
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


def nearest_trajectory_score(data: TrajectoryDataset, f) -> float:
    """Smallest quadrature-weighted L2 distance from the probe to the database.

    Probe and references are all evaluated on the NEAREST_QUAD_POINTS
    Gauss-Chebyshev grid (curves by linear interpolation, so a probe that
    *is* a database curve scores exactly 0), and the distance uses the
    probability weight: ||f - g||^2 ~ (1/M) sum_j (f(t_j) - g(t_j))^2.  A
    one-probe call of `nearest_distances`.
    """
    nodes = chebyshev_quadrature_nodes(NEAREST_QUAD_POINTS)
    return float(nearest_distances(data.on_nodes(nodes), _probe_values(f, nodes))[0])


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
        per row; all probes share one `cd_values` call.  A non-finite
        value (an overflowed curve) gets 0: its CD value is inf.
        """
        F = np.asarray(values, dtype=float).reshape(-1, self.nodes.size)
        pts = np.stack([np.tile(self.nodes, F.shape[0]), F.ravel()], axis=1)
        finite = np.isfinite(F.ravel())
        cd = np.full(finite.size, np.inf)
        cd[finite] = _model.cd_values(self.model, pts[finite])
        return (1.0 / cd).reshape(F.shape)

    def fractions_below(self, values, delta: float) -> np.ndarray:
        """Per probe row of `profiles` input, the fraction of nodes where
        the pointwise value drops under delta.  delta = 0 gives 0; the
        largest delta that flags no reference curve is `cloud_floor`."""
        if delta < 0.0 or not math.isfinite(delta):
            raise InputError(f"delta must be finite and >= 0, got {delta!r}")
        return np.mean(self.profiles(values) < delta, axis=1)

    def fraction_below(self, f, delta: float) -> float:
        """Fraction of nodes where the probe's pointwise value drops under delta."""
        return float(self.fractions_below(_probe_values(f, self.nodes), delta)[0])
