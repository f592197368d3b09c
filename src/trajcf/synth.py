"""Seedable synthetic experiments: ball-perturbed curve families.

Both generators share one nominal curve, the orthonormal coefficient
vector of (T1 + T2 + T3)/3,

    g0 = (0, 1/(3 sqrt 2), 1/(3 sqrt 2), 1/(3 sqrt 2), 0),

and draw inliers g_i = g0 + eta_i with eta_i uniform on the solid Euclidean
ball of radius 1/10 over the first four orthonormal coordinates, so every
inlier satisfies |g_i - g0| <= 1/10 exactly and has harmonic degree 4 (its
fifth coefficient stays zero).

* experiment 1: the designated outlier takes the same construction with a
  ten-times larger radius (1.0) — same support directions, wildly larger
  spread, so its CD value at (d, n) = (4, 4) lands orders of magnitude
  above the in-sample average of 70.
* experiment 2: the designated outlier is g0 + eps * T4 (eps = 1/10,
  OUTLIER_T4_AMPLITUDE), whose fifth coefficient eps/sqrt(2) is
  nonzero — fitting at (d, n) = (1, 5) then yields a moment matrix whose
  last row and column vanish identically, and the regularized score
  blows up on the outlier.

Reproducibility: every trajectory draws from its own counter-based Philox
stream keyed (seed, index) — inlier i uses (seed, i), the experiment-1
outlier uses (seed, N) — so datasets are byte-identical across runs,
platforms, and any parallel generation order.  A family builds one
generator and re-keys it to (seed, i), counter 0, before curve i; that is
the stream a fresh ``Philox(key=(seed, i))`` gives, so the draws, and the
files written from them, are the same as with one generator per curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .dataset import TrajectoryDataset, read_only_array
from .projection import chebyshev_quadrature_nodes, reconstruct_batch

# Orthonormal coefficients of the shared nominal curve (T1 + T2 + T3)/3:
# T_k = e_{k+1} / sqrt(2) for k >= 1, hence the 1/(3 sqrt 2) entries.
NOMINAL_COEFFS = (0.0, 1.0 / (3.0 * math.sqrt(2.0)),
                  1.0 / (3.0 * math.sqrt(2.0)), 1.0 / (3.0 * math.sqrt(2.0)), 0.0)

# The ball perturbation spans the first four orthonormal coordinates.
PERTURBED_COORDS = (0, 1, 2, 3)

DEFAULT_RADIUS = 0.1
OUTLIER_RADIUS_FACTOR = 10.0  # "an order of magnitude" larger, pinned exactly
OUTLIER_T4_AMPLITUDE = 0.1  # experiment 2's outlier is nominal + this * T4
CURVE_SAMPLE_POINTS = 33

# Curves evaluated per `reconstruct_batch` call: it bounds synth's
# temporaries, and no value depends on it.
CURVE_BLOCK_ROWS = 1024


def _check_family(N: int, seed: int, radius: float) -> None:
    """Reject a radius, count or seed no family can be drawn with."""
    if radius <= 0.0 or not math.isfinite(radius):
        raise InputError(f"perturbation radius must be > 0, got {radius!r}")
    if N < 1:
        raise InputError(f"sample count (--count) must be >= 1, got {N}")
    # The (count, 5) coefficient array must have a size numpy can shape.
    if N > np.iinfo(np.intp).max // (8 * len(NOMINAL_COEFFS)):
        raise InputError(f"sample count (--count) is too large, got {N}")
    if not 0 <= seed < 2**64:  # a Philox key word is 64 bits
        raise InputError(f"seed (--seed) must be an integer in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class SyntheticExperiment:
    """One generated family: references plus a designated outlier.

    ``outlier`` and ``nominal`` are read-only (5,) coefficient rows.
    """

    dataset: TrajectoryDataset
    outlier: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "outlier", read_only_array(self.outlier))

    @property
    def nominal(self) -> np.ndarray:
        """NOMINAL_COEFFS, the row every family perturbs."""
        return read_only_array(NOMINAL_COEFFS)


def _stream(seed: int, index: int) -> np.random.Generator:
    """The (seed, index)-keyed Philox stream for one trajectory."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _streams(seed: int, count: int):
    """The streams ``_stream(seed, i)`` for i < count, in order.

    One generator is re-keyed before each yield by restoring a fresh
    instance's state with the key's second word set to i, which is what
    ``Philox(key=(seed, i))`` starts from; building one Philox per curve
    costs more than drawing from it.  Use each stream before the next.
    """
    rng = _stream(seed, 0)
    state = rng.bit_generator.state
    key = state["state"]["key"]
    for i in range(count):
        key[1] = i
        rng.bit_generator.state = state
        yield rng


def sample_ball(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw from the solid Euclidean ball of the given radius.

    Construction: an isotropic Gaussian direction normalized to the sphere,
    scaled by radius * U**(1/dim) with U uniform on (0, 1) — the classic
    volume-correct radial law.  radius = 0 returns the zero vector.
    """
    if dim < 1:
        raise InputError(f"ball dimension must be >= 1, got {dim}")
    if radius < 0.0 or not math.isfinite(radius):
        raise InputError(f"ball radius must be finite and >= 0, got {radius!r}")
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    while norm == 0.0:  # probability-zero guard
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
    u = rng.uniform(0.0, 1.0)
    return (radius * u ** (1.0 / dim) / norm) * direction


def _check_overflow(radius: float, *draws) -> None:
    """Reject a radius so large that the draws or their curves overflowed."""
    if not all(np.isfinite(a).all() for a in draws):
        raise InputError(f"perturbation radius (--radius) {radius!r} is too large: "
                         "the synthetic curves overflow")


def _generate_family(N: int, seed: int, radius: float) -> TrajectoryDataset:
    """N inliers of the given seed and radius: their coefficient rows and
    their 33-point curves.

    The curves are filled into one (33, N) array, CURVE_BLOCK_ROWS rows of
    C at a time: `reconstruct_batch` evaluates each value on its own, so a
    block gives every value the bits of one call on all N rows, and only
    its temporaries are block-sized.  Both arrays are handed to the dataset
    read-only, so it keeps them without a copy.
    """
    g0 = np.asarray(NOMINAL_COEFFS, dtype=float)
    coords = np.asarray(PERTURBED_COORDS, dtype=int)
    eta = np.empty((N, coords.size))
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_overflow
        for i, rng in enumerate(_streams(seed, N)):
            eta[i] = sample_ball(coords.size, radius, rng)
        C = np.full((N, g0.size), g0)
        C[:, coords] += eta
    del eta  # freed before the samples are allocated
    _check_overflow(radius, C)
    nodes = np.sort(chebyshev_quadrature_nodes(CURVE_SAMPLE_POINTS))
    values = np.empty((nodes.size, N))
    for s in range(0, N, CURVE_BLOCK_ROWS):
        block = reconstruct_batch(C[s:s + CURVE_BLOCK_ROWS], nodes)
        _check_overflow(radius, block)
        values[:, s:s + CURVE_BLOCK_ROWS] = block.T
    C.setflags(write=False)
    values.setflags(write=False)
    ids = [f"g{i:04d}" for i in range(N)]
    return TrajectoryDataset(C, ids=ids, domain=(-1.0, 1.0), times=nodes, values=values)


def generate_example1(N: int, seed: int, radius: float = DEFAULT_RADIUS) -> SyntheticExperiment:
    """Radius-ratio family: inliers in a ball of ``radius``, one outlier
    drawn the same way at OUTLIER_RADIUS_FACTOR x ``radius``.

    The outlier uses the dedicated stream (seed, N), so it is independent
    of every inlier yet fully determined by (N, seed).
    """
    _check_family(N, seed, radius)
    r_out = OUTLIER_RADIUS_FACTOR * radius
    _check_overflow(radius, r_out)
    dataset = _generate_family(N, seed, radius)
    out = np.asarray(NOMINAL_COEFFS, dtype=float)
    coords = np.asarray(PERTURBED_COORDS, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _check_overflow
        out[coords] += sample_ball(coords.size, r_out, _stream(seed, N))
    _check_overflow(radius, out)
    return SyntheticExperiment(dataset=dataset, outlier=out)


def generate_example2(N: int, seed: int, radius: float = DEFAULT_RADIUS) -> SyntheticExperiment:
    """Harmonic-degree-mismatch family: inliers as in experiment 1 (fifth
    coefficient exactly zero), outlier = nominal + eps * T4 with
    eps = OUTLIER_T4_AMPLITUDE, whose fifth orthonormal coefficient is
    eps / sqrt(2)."""
    _check_family(N, seed, radius)
    dataset = _generate_family(N, seed, radius)
    out = np.asarray(NOMINAL_COEFFS, dtype=float)
    out[4] = OUTLIER_T4_AMPLITUDE / math.sqrt(2.0)
    return SyntheticExperiment(dataset=dataset, outlier=out)
