"""Sampled curves -> orthonormal Chebyshev coefficients, and back.

The orthonormal system on [-1, 1] is e_1 = 1 and e_k = sqrt(2) * T_{k-1}
for k >= 2 (T_j the Chebyshev polynomials of the first kind), orthonormal
under the probability weight 1 / (pi * sqrt(1 - t^2)).  A curve's k-th
coefficient is the weighted inner product <f, e_k>, computed here with the
Gauss-Chebyshev rule: nodes t_j = cos((2j - 1) pi / (2M)) and the uniform
weight 1/M.  That rule integrates polynomial integrands of degree up to
2M - 1 exactly, so for M >= n the discretized system is orthonormal to
machine precision.

Curves sampled on arbitrary strictly-increasing grids over any interval
[t_lo, t_hi] are handled by mapping the interval affinely onto [-1, 1] and
linearly interpolating between samples (with clamping beyond the sampled
range); interpolation is the one approximation in this module and is a bias
source for coarse grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numpy.polynomial import chebyshev as _cheb

import numpy as np

from .errors import InputError

# Largest harmonic truncation `project` accepts; keeps the quadrature
# default M = max(256, 8n) and downstream basis sizes desk-scale.
MAX_HARMONIC = 4096

# Curves per block in `project`.  Every block is padded to this many curves,
# so its product with the operator has one shape and a curve gets the same
# bits alone or in any batch.
PROJECT_BLOCK_CURVES = 256


def default_quad_points(n: int) -> int:
    """Default Gauss-Chebyshev point count for projecting to n coefficients."""
    return max(256, 8 * n)


@dataclass(frozen=True)
class SampledTrajectory:
    """One recorded curve.

    Parameters
    ----------
    times : array_like
        Strictly increasing sample times inside ``domain``.
    values : array_like
        Samples f(times), same length as ``times`` (at least 2).
    id : str, optional
        Label carried through reports.
    domain : (float, float)
        The interval the curve lives on; mapped affinely to [-1, 1]
        before any quadrature.
    """

    times: np.ndarray
    values: np.ndarray
    id: str | None = None
    domain: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise InputError("times and values must be 1-D sequences of equal length")
        domain = _check_grid(t, self.domain, self.id)
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "domain", domain)


class DomainWidthError(InputError):
    """A domain with finite lo < hi whose width 2 * (hi - lo) overflows."""


def check_domain(domain) -> tuple[float, float]:
    """A time domain (lo, hi) as floats: both finite, lo < hi, and a finite
    2 * (hi - lo), so `unit_times` cannot overflow inside it (else a
    DomainWidthError)."""
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise InputError(f"invalid domain interval ({lo}, {hi})")
    if not math.isfinite(2.0 * (hi - lo)):
        raise DomainWidthError(f"invalid domain interval ({lo}, {hi}): its width overflows")
    return lo, hi


def _check_grid(times: np.ndarray, domain, curve_id=None) -> tuple[float, float]:
    """Validate a sample grid against its domain; returns the domain as floats.

    The grid needs at least 2 finite, strictly increasing times inside
    ``domain``; ``curve_id`` names the curve in the messages.
    """
    if times.size < 2:
        raise InputError("a trajectory needs at least 2 samples")
    if not np.all(np.isfinite(times)):
        raise InputError("trajectory times contain non-finite entries")
    if np.any(np.diff(times) <= 0):
        raise InputError(f"trajectory times must be strictly increasing (id={curve_id!r})")
    lo, hi = check_domain(domain)
    span = hi - lo
    if times[0] < lo - 1e-12 * span or times[-1] > hi + 1e-12 * span:
        raise InputError(
            f"trajectory times [{times[0]}, {times[-1]}] leave the declared domain [{lo}, {hi}]"
        )
    return lo, hi


def check_samples(times: np.ndarray, values: np.ndarray, domain, ids=None) -> tuple[float, float]:
    """`_check_grid` of the grid of the (T, K) samples, which must be finite;
    ``ids`` names the curves in the messages.  Returns the domain as floats."""
    domain = _check_grid(times, domain, ids[0] if ids else None)
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise InputError(
            f"trajectory values contain non-finite entries "
            f"(id={None if ids is None else ids[bad]!r})"
        )
    return domain


def unit_times(times: np.ndarray, domain) -> np.ndarray:
    """Sample times mapped affinely from ``domain`` onto [-1, 1]."""
    lo, hi = domain
    if lo == -1.0 and hi == 1.0:  # identity map: keep times bit-exact
        return times
    return 2.0 * (times - lo) / (hi - lo) - 1.0


def coeff_array(c) -> np.ndarray:
    """One coefficient row as a 1-D float array."""
    arr = np.asarray(c, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"expected a 1-D coefficient vector, got shape {arr.shape}")
    return arr


def chebyshev_quadrature_nodes(M: int) -> np.ndarray:
    """Gauss-Chebyshev nodes t_j = cos((2j - 1) pi / (2M)), j = 1..M.

    Returned in the natural descending order; the matching quadrature
    weight is uniformly 1/M.  Requires M >= 2.
    """
    if not isinstance(M, (int, np.integer)) or isinstance(M, bool) or M < 2:
        raise InputError(f"quadrature needs an integer point count >= 2, got {M!r}")
    j = np.arange(1, M + 1, dtype=float)
    return np.cos((2.0 * j - 1.0) * math.pi / (2.0 * M))


def _left_samples(unit_times: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Index j of the sample interval [t_j, t_{j+1}) holding each node:
    -1 before the first sample, T - 1 from the last sample on."""
    return np.searchsorted(unit_times, nodes, side="right") - 1


def values_on_nodes(unit_times: np.ndarray, values, nodes) -> np.ndarray:
    """Piecewise-linear values of curves sampled on one grid, at unit-interval nodes.

    Parameters
    ----------
    unit_times : ndarray, shape (T,)
        The shared sample grid, already mapped onto [-1, 1].
    values : array_like, shape (T, K)
        One curve per column.
    nodes : array_like, shape (M,)

    Returns
    -------
    ndarray, shape (K, M)
        Nodes beyond the sampled range take the nearest endpoint value.
        Each entry is computed with the arithmetic of ``np.interp``, so a
        curve gets the same values bit for bit whatever batch it is in.
        Samples too far apart for a finite slope give inf or nan values
        without a warning: each caller decides what such a curve means.
    """
    nodes = np.asarray(nodes, dtype=float)
    rows = np.asarray(values, dtype=float).T
    T = unit_times.size
    j = _left_samples(unit_times, nodes)
    jc = np.clip(j, 0, T - 2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dy = np.diff(rows, axis=1)
        dx = np.diff(unit_times)
        out = (dy / dx)[:, jc] * (nodes - unit_times[jc]) + rows[:, jc]
    out[:, j < 0] = rows[:, :1]
    out[:, j >= T - 1] = rows[:, -1:]
    return out


def quad_point_count(n: int, quad_points: int | None) -> int:
    """Validate the truncation n; return the quadrature point count M for it."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InputError(f"harmonic truncation must be an integer >= 1, got {n!r}")
    if n > MAX_HARMONIC:
        raise InputError(f"harmonic truncation {n} exceeds the cap of {MAX_HARMONIC}")
    M = default_quad_points(n) if quad_points is None else quad_points
    if not isinstance(M, (int, np.integer)) or isinstance(M, bool) or M < 2:
        raise InputError(f"quadrature point count must be an integer >= 2, got {M!r}")
    if M < n:
        raise InputError(
            f"{M} quadrature points cannot resolve {n} coefficients (need M >= n)"
        )
    return int(M)


def _projection_operator(unit_times: np.ndarray, n: int, M: int) -> np.ndarray:
    """The (n, T) matrix taking samples on a grid to n orthonormal coefficients.

    Row k is (1/M) sum_j e_k(t_j) w_j, where w_j holds the linear
    interpolation weights of node t_j on the grid: the quadrature of
    `project` with the resampling folded in.
    """
    nodes = chebyshev_quadrature_nodes(M)
    T = unit_times.size
    jc = np.clip(_left_samples(unit_times, nodes), 0, T - 2)
    # Collapsed unit times give a zero-width interval; its inf quotients clip to 0 or 1.
    with np.errstate(divide="ignore", invalid="ignore"):
        right = np.clip((nodes - unit_times[jc]) / (unit_times[jc + 1] - unit_times[jc]), 0.0, 1.0)
    # chebvander columns are T_0 .. T_{n-1}, evaluated by the stable recurrence.
    E = _cheb.chebvander(nodes, n - 1) / M
    if n > 1:
        E[:, 1:] *= math.sqrt(2.0)
    op = np.zeros((T, n))
    np.add.at(op, jc, E * (1.0 - right)[:, None])
    np.add.at(op, jc + 1, E * right[:, None])
    return op.T


def project(times, values, n: int, quad_points: int | None = None,
            domain=(-1.0, 1.0), ids=None) -> np.ndarray:
    """Project curves sampled on one shared grid onto n orthonormal coefficients.

    Parameters
    ----------
    times : array_like, shape (T,)
        Strictly increasing sample times inside ``domain``, checked even
        when K = 0; only T = K = 0 (no grid, no curves) is not checked.
    values : array_like, shape (T, K)
        One curve per column.
    n : int
        Harmonic truncation, 1 <= n <= MAX_HARMONIC.
    quad_points : int, optional
        Gauss-Chebyshev point count M; defaults to max(256, 8n) and must
        be at least n so the discrete system stays orthonormal.
    domain : (float, float)
    ids : sequence of str, optional
        Curve labels, used to name a curve with non-finite samples.

    Returns
    -------
    ndarray, shape (K, n)
        Row k holds curve k's coefficients: entry 1 is the quadrature mean
        of f, entry k >= 2 is (sqrt(2)/M) * sum_j f(t_j) T_{k-1}(t_j).  One
        (n x T) operator is applied to blocks of PROJECT_BLOCK_CURVES
        columns, the last padded with zero columns, so a curve's row does
        not depend on the batch it came in.
    """
    M = quad_point_count(n, quad_points)
    t = np.asarray(times, dtype=float)
    V = np.asarray(values, dtype=float)
    if t.ndim != 1 or V.ndim != 2 or V.shape[0] != t.size:
        raise InputError(f"expected samples of shape ({t.size}, K), got {V.shape}")
    if V.shape == (0, 0):  # no grid and no curves: nothing to check
        return np.empty((0, int(n)))
    domain = check_samples(t, V, domain, ids)
    A = _projection_operator(unit_times(t, domain), int(n), M).T
    K = V.shape[1]
    out = np.empty((K, int(n)))
    for start in range(0, K, PROJECT_BLOCK_CURVES):
        block = V[:, start:start + PROJECT_BLOCK_CURVES]
        k = block.shape[1]
        if k < PROJECT_BLOCK_CURVES:  # the curves past the last whole block
            block = np.zeros((t.size, PROJECT_BLOCK_CURVES))
            block[:, :k] = V[:, start:]
        out[start:start + k] = (block.T @ A)[:k]
    return out


def reconstruct_batch(coeff_matrix, t) -> np.ndarray:
    """Evaluate many truncated series at the same points.

    Parameters
    ----------
    coeff_matrix : array_like, shape (N, n)
        One orthonormal coefficient vector per row.
    t : array_like, shape (M,)

    Returns
    -------
    ndarray, shape (N, M)
        A series too large to evaluate gives inf or nan values, without a
        warning: each caller decides what such a curve means.
    """
    C = np.asarray(coeff_matrix, dtype=float)
    if C.ndim != 2:
        raise InputError(f"expected a 2-D coefficient matrix, got shape {C.shape}")
    series = np.array(C.T, copy=True)  # chebval wants coefficients first
    with np.errstate(over="ignore", invalid="ignore"):
        if series.shape[0] > 1:
            series[1:, :] *= math.sqrt(2.0)
        return _cheb.chebval(np.asarray(t, dtype=float), series)
